#include "perfbench/programs.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/apps/lulesh/lulesh_ref.h"
#include "src/core/plan.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/psim/sim.h"
#include "src/support/rng.h"

namespace perfbench {

using namespace parad;
using LCfg = apps::lulesh::Config;
using BCfg = apps::minibude::Config;

Variant mpHaloVariant() {
  Variant v;
  v.name = "lulesh_mpi_64x2";
  v.lulesh.mp = true;
  v.lulesh.rside = 4;
  v.lulesh.s = 2;
  v.lulesh.nsteps = 10;
  v.threads = 1;
  return v;
}

std::vector<Variant> sweepVariants() {
  auto lulesh = [](const char* name, LCfg::Par par, bool mp, bool jl,
                   int threads) {
    Variant v;
    v.name = name;
    v.lulesh.par = par;
    v.lulesh.mp = mp;
    v.lulesh.jliteMem = jl;
    v.lulesh.s = 4;
    v.lulesh.rside = mp ? 2 : 1;
    v.lulesh.nsteps = 2;
    v.lulesh.jlTasks = 4;
    v.threads = threads;
    return v;
  };
  auto bude = [](const char* name, BCfg::Par par, bool mp, bool jl,
                 int threads) {
    Variant v;
    v.name = name;
    v.bude = true;
    v.minibude.par = par;
    v.minibude.mp = mp;
    v.minibude.jliteMem = jl;
    v.minibude.poses = 16;
    v.minibude.ligAtoms = 4;
    v.minibude.protAtoms = 8;
    v.minibude.jlTasks = 4;
    v.minibude.mpRanks = 4;
    v.threads = threads;
    return v;
  };
  return {
      lulesh("lulesh_serial", LCfg::Par::Serial, false, false, 1),
      lulesh("lulesh_omp", LCfg::Par::Omp, false, false, 4),
      lulesh("lulesh_raja", LCfg::Par::Raja, false, false, 4),
      lulesh("lulesh_jltasks", LCfg::Par::JliteTasks, false, true, 4),
      lulesh("lulesh_mpi", LCfg::Par::Serial, true, false, 1),
      lulesh("lulesh_hybrid", LCfg::Par::Omp, true, false, 2),
      lulesh("lulesh_mpijl", LCfg::Par::Serial, true, true, 1),
      bude("bude_omp", BCfg::Par::Omp, false, false, 4),
      bude("bude_jltasks", BCfg::Par::JliteTasks, false, true, 4),
      bude("bude_mpi", BCfg::Par::Serial, true, false, 1),
  };
}

std::uint64_t countInsts(const ir::Function& fn) {
  std::uint64_t n = 0;
  std::vector<const ir::Region*> work{&fn.body};
  while (!work.empty()) {
    const ir::Region* r = work.back();
    work.pop_back();
    n += r->insts.size();
    for (const ir::Inst& in : r->insts)
      for (const ir::Region& sub : in.regions) work.push_back(&sub);
  }
  return n;
}

Compiled::~Compiled() {
  if (mod) interp::ProgramCache::global().invalidateModule(mod.get());
}

Compiled compileModule(const std::function<void(ir::Module&)>& build,
                       const char* primal, const std::vector<bool>& activeArg,
                       long op) {
  Compiled c;
  c.mod = std::make_unique<ir::Module>();
  {
    trace::Span s("ir.build", op);
    build(*c.mod);
  }
  {
    trace::Span s("passes.prepare", op);
    passes::prepareForAD(*c.mod, primal, passes::PipelineOptions{});
  }
  c.instsPrimal = countInsts(c.mod->get(primal));
  c.primal = primal;
  c.cfg.activeArg = activeArg;
  {
    trace::Span s("core.generate", op);
    c.gi = core::generateGradient(*c.mod, primal, c.cfg);
  }
  {
    trace::Span s("passes.optimize", op);
    passes::optimizeGradient(*c.mod, c.gi.name);
  }
  c.instsGrad = countInsts(c.mod->get(c.gi.name));
  {
    trace::Span s("interp.lower", op);
    c.lowerBytes = interp::execModuleBytes(
        *interp::compileClosure(*c.mod, c.mod->get(c.gi.name)));
  }
  return c;
}

double planMs(const Compiled& c) {
  constexpr int kRuns = 5;
  std::vector<double> ms;
  for (int i = 0; i < kRuns; ++i) {
    std::uint64_t t0 = nowNs();
    (void)core::planGradient(*c.mod, c.primal, c.cfg);
    ms.push_back(double(nowNs() - t0) * 1e-6);
  }
  return median(ms);
}

Compiled compile(const Variant& v, long op) {
  return compileModule(
      [&](ir::Module& mod) {
        mod = v.bude ? apps::minibude::build(v.minibude)
                     : apps::lulesh::build(v.lulesh);
      },
      v.primal(),
      v.bude ? std::vector<bool>{true, true, false, true, false, false, false}
             : std::vector<bool>{true, true, true, false, false, false},
      op);
}

Inputs makeInputs(const Variant& v, std::uint64_t seed) {
  Inputs in;
  if (v.bude) {
    in.deck = apps::minibude::makeDeck(v.minibude, unsigned(seed * 2654435761u));
    return in;
  }
  // The seed perturbs the Sedov-like state: energies by up to 2%, and a
  // small initial nodal velocity field.
  for (int r = 0; r < v.ranks(); ++r) {
    apps::lulesh::State st = apps::lulesh::initialState(v.lulesh, r);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + std::uint64_t(r) + 1);
    for (double& e : st.e) e *= 1.0 + rng.uniform(-0.02, 0.02);
    for (double& u : st.u) u = rng.uniform(-1e-3, 1e-3);
    in.ranks.push_back(std::move(st));
  }
  return in;
}

namespace {

psim::RtPtr upload(psim::Machine& m, int rank, const std::vector<double>& x) {
  psim::RtPtr p = m.mem().alloc(ir::Type::F64, static_cast<i64>(x.size()),
                                m.socketOfRank(rank));
  for (std::size_t k = 0; k < x.size(); ++k)
    m.mem().atF(p, static_cast<i64>(k)) = x[k];
  return p;
}

void download(psim::Machine& m, psim::RtPtr p, i64 n, std::vector<double>& out) {
  for (i64 k = 0; k < n; ++k) out.push_back(m.mem().atF(p, k));
}

}  // namespace

RunOut run(const Variant& v, const Compiled& c, const Inputs& in,
           bool gradient, const char* engine, long op) {
  const ir::Module& mod = *c.mod;
  const ir::Function& fn = mod.get(gradient ? c.gi.name : v.primal());
  const int R = v.ranks();
  std::vector<std::vector<interp::RtVal>> args(static_cast<std::size_t>(R));
  // Output buffers per rank: LULESH e, de, dv, du; miniBUDE energies,
  // dposes, dlig.
  std::vector<std::vector<psim::RtPtr>> outs(static_cast<std::size_t>(R));
  std::unique_ptr<psim::Machine> m;
  {
    trace::Span s("psim.setup", op);
    m = std::make_unique<psim::Machine>();
    for (int r = 0; r < R; ++r) {
      auto& a = args[static_cast<std::size_t>(r)];
      auto& o = outs[static_cast<std::size_t>(r)];
      if (v.bude) {
        const auto& d = in.deck;
        const BCfg& b = v.minibude;
        psim::RtPtr energies =
            upload(*m, r, std::vector<double>(std::size_t(b.poses), 0.0));
        a = {interp::RtVal::P(upload(*m, r, d.poses)),
             interp::RtVal::P(upload(*m, r, d.lig)),
             interp::RtVal::P(upload(*m, r, d.prot)),
             interp::RtVal::P(energies), interp::RtVal::I(b.poses),
             interp::RtVal::I(b.ligAtoms), interp::RtVal::I(b.protAtoms)};
        o.push_back(energies);
        if (gradient) {
          psim::RtPtr dp = upload(*m, r, std::vector<double>(d.poses.size()));
          psim::RtPtr dl = upload(*m, r, std::vector<double>(d.lig.size()));
          psim::RtPtr de = upload(
              *m, r, std::vector<double>(std::size_t(b.poses), r == 0 ? 1 : 0));
          a.push_back(interp::RtVal::P(dp));
          a.push_back(interp::RtVal::P(dl));
          a.push_back(interp::RtVal::P(de));
          o.push_back(dp);
          o.push_back(dl);
        }
      } else {
        const apps::lulesh::State& st = in.ranks[static_cast<std::size_t>(r)];
        const LCfg& l = v.lulesh;
        psim::RtPtr e = upload(*m, r, st.e);
        a = {interp::RtVal::P(e), interp::RtVal::P(upload(*m, r, st.v)),
             interp::RtVal::P(upload(*m, r, st.u)), interp::RtVal::I(l.s),
             interp::RtVal::I(l.nsteps), interp::RtVal::I(l.rside)};
        o.push_back(e);
        if (gradient) {
          psim::RtPtr de = upload(*m, r, std::vector<double>(st.e.size(), 1.0));
          psim::RtPtr dv = upload(*m, r, std::vector<double>(st.v.size()));
          psim::RtPtr du = upload(*m, r, std::vector<double>(st.u.size()));
          a.push_back(interp::RtVal::P(de));
          a.push_back(interp::RtVal::P(dv));
          a.push_back(interp::RtVal::P(du));
          o.push_back(de);
          o.push_back(dv);
          o.push_back(du);
        }
      }
    }
  }

  RunOut out;
  {
    trace::Span s("psim.run", op);
    const int runSpan = s.id();
    out.makespan = m->run({R, v.threads}, [&](psim::RankEnv& env) {
      trace::Span rs("interp.run", op, runSpan, /*cpuActive=*/true);
      interp::Interpreter it(mod, *m, engine);
      it.run(fn, args[static_cast<std::size_t>(env.rank)], env);
    });
  }
  out.stats = m->stats();
  out.contextSwitches = m->sched().lastRunTelemetry().steps;

  for (int r = 0; r < R; ++r) {
    const auto& o = outs[static_cast<std::size_t>(r)];
    if (v.bude) {
      if (r == 0)
        for (i64 p = 0; p < v.minibude.poses; ++p)
          out.objective += m->mem().atF(o[0], p);
      if (gradient) {
        download(*m, o[1], i64(in.deck.poses.size()), out.grad);
        download(*m, o[2], i64(in.deck.lig.size()), out.grad);
      }
    } else {
      const LCfg& l = v.lulesh;
      for (i64 k = 0; k < l.elems(); ++k) out.objective += m->mem().atF(o[0], k);
      if (gradient) {
        download(*m, o[1], l.elems(), out.grad);
        download(*m, o[2], l.elems(), out.grad);
        download(*m, o[3], l.nodes(), out.grad);
      }
    }
  }
  return out;
}

namespace {

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Native LULESH objective of a single block (RefSim), e shifted by `de`.
double refLulesh(const Variant& v, const Inputs& in, double de) {
  apps::lulesh::RefSim<double> sim(v.lulesh.s);
  sim.e = in.ranks[0].e;
  for (double& x : sim.e) x += de;
  sim.v = in.ranks[0].v;
  sim.u = in.ranks[0].u;
  sim.run(v.lulesh.nsteps);
  return sim.totalEnergy();
}

/// Native miniBUDE objective with poses and ligand coordinates shifted by h.
double refBude(const Variant& v, const Inputs& in, double h) {
  apps::minibude::Deck d = in.deck;
  for (double& x : d.poses) x += h;
  for (double& x : d.lig) x += h;
  double sum = 0;
  for (int p = 0; p < v.minibude.poses; ++p)
    sum += apps::minibude::refPoseEnergy(v.minibude, d, p);
  return sum;
}

/// Sum of the gradient components the fast-mode projection perturbs: every
/// de (LULESH) or every dposes + dlig (miniBUDE).
double projection(const Variant& v, const std::vector<double>& grad) {
  double sum = 0;
  if (v.bude) {
    for (double g : grad) sum += g;
    return sum;
  }
  const LCfg& l = v.lulesh;
  std::size_t per = std::size_t(2 * l.elems() + l.nodes());
  for (int r = 0; r < v.ranks(); ++r)
    for (i64 k = 0; k < l.elems(); ++k) sum += grad[r * per + std::size_t(k)];
  return sum;
}

}  // namespace

Reference buildReference(const Variant& v, const Compiled& c,
                         const Inputs& in) {
  Reference ref;
  RunOut tree = run(v, c, in, true, "tree", -1);
  ref.grad = tree.grad;
  ref.exec = run(v, c, in, true, "exec", -1);
  ref.gradNs = ref.exec.makespan;
  RunOut primal = run(v, c, in, false, "exec", -1);
  ref.primalNs = primal.makespan;
  std::ostringstream err;
  if (!bitEqual(ref.exec.grad, tree.grad))
    err << "exec gradient differs from the tree engine's; ";

  // Objective oracle: the native reference where one exists, else the
  // tree engine's primal (the message-passing LULESH decomposition has no
  // native counterpart).
  const double h = 1e-6;
  double fd = 0;
  if (v.bude) {
    ref.objective = refBude(v, in, 0);
    ref.objectiveRelTol = 1e-9;
    fd = (refBude(v, in, h) - refBude(v, in, -h)) / (2 * h);
  } else if (!v.lulesh.mp) {
    ref.objective = refLulesh(v, in, 0);
    ref.objectiveRelTol = 1e-10;
    fd = (refLulesh(v, in, h) - refLulesh(v, in, -h)) / (2 * h);
  } else {
    ref.objective = run(v, c, in, false, "tree", -1).objective;
    ref.objectiveRelTol = 1e-10;
    Inputs up = in, down = in;
    for (auto& st : up.ranks)
      for (double& x : st.e) x += h;
    for (auto& st : down.ranks)
      for (double& x : st.e) x -= h;
    fd = (run(v, c, up, false, "tree", -1).objective -
          run(v, c, down, false, "tree", -1).objective) /
         (2 * h);
  }
  if (std::abs(primal.objective - ref.objective) >
      ref.objectiveRelTol * std::max(1.0, std::abs(ref.objective)))
    err << "primal objective " << primal.objective << " != oracle "
        << ref.objective << "; ";
  // Paper §VII fast-mode check of the reference gradient itself.
  double proj = projection(v, tree.grad);
  if (std::abs(proj - fd) > 1e-4 * std::max(1.0, std::abs(fd)))
    err << "fast-mode FD check failed: projection " << proj << " vs FD " << fd
        << "; ";
  std::string e = check(ref, ref.exec);
  if (!e.empty()) err << e;
  ref.error = err.str();
  return ref;
}

std::string check(const Reference& ref, const RunOut& out) {
  if (!bitEqual(out.grad, ref.grad))
    return "gradient not bit-identical to the reference";
  if (!(std::abs(out.objective - ref.objective) <=
        ref.objectiveRelTol * std::max(1.0, std::abs(ref.objective)))) {
    std::ostringstream s;
    s.precision(17);
    s << "objective " << out.objective << " != oracle " << ref.objective;
    return s.str();
  }
  return "";
}

}  // namespace perfbench
