// Shared support utilities: strict byte-size knob parsing, the knob tables
// (checked against the README's tables), did-you-mean hints, the
// byte-capped LRU, and the values of the FNV-1a fingerprints built on the
// shared hasher (the checkpoint and store checksums, the ProgramCache
// revalidation fingerprint, and the content address of codegen artifacts on
// disk).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/minibude/minibude.h"
#include "src/interp/codegen.h"
#include "src/interp/lower.h"
#include "src/io/store.h"
#include "src/ir/builder.h"
#include "src/psim/faults.h"
#include "src/support/fnv.h"
#include "src/support/knobs.h"
#include "src/support/lru.h"
#include "src/support/suggest.h"
#include "tests/test_util.h"

using namespace parad;
using parad::test::EnvVar;

namespace {

// parseByteSize's message for `text`, or "" when it parses.
std::string byteSizeError(const std::string& name, const std::string& text) {
  try {
    (void)parseByteSize(name, text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The three byte-size knobs, all read through envByteSize.
const char* const kByteKnobs[] = {"PARAD_PROGRAM_CACHE_BYTES",
                                  "PARAD_CODEGEN_DISK_BYTES",
                                  "PARAD_CKPT_DISK_BYTES"};

}  // namespace

TEST(ByteSize, AcceptsDigitsWithBinarySuffix) {
  EXPECT_EQ(parseByteSize("X", "0"), 0u);
  EXPECT_EQ(parseByteSize("X", "4096"), 4096u);
  EXPECT_EQ(parseByteSize("X", "007"), 7u);
  EXPECT_EQ(parseByteSize("X", "64K"), 64u << 10);
  EXPECT_EQ(parseByteSize("X", "64M"), 64u << 20);
  EXPECT_EQ(parseByteSize("X", "3G"), std::size_t{3} << 30);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parseByteSize("X", std::to_string(kMax)), kMax);
  EXPECT_EQ(parseByteSize("X", std::to_string(kMax >> 30) + "G"),
            (kMax >> 30) << 30);
}

TEST(ByteSize, RejectsMalformedValuesNamingVariableAndValue) {
  const std::string expected =
      "' is not a byte size (expected decimal digits, optionally followed by "
      "K, M or G)";
  for (const char* bad : {"", "abc", "-1", "+5", " 5", "5 ", "1.5M", "64MB",
                          "64m", "0x10", "K", "12KM"})
    EXPECT_EQ(byteSizeError("PARAD_CODEGEN_DISK_BYTES", bad),
              "PARAD_CODEGEN_DISK_BYTES='" + std::string(bad) + expected)
        << bad;
}

TEST(ByteSize, RejectsOverflow) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::string tooBig = std::to_string(kMax);
  tooBig.back() = static_cast<char>(tooBig.back() + 1);  // max + 1
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", tooBig),
            "PARAD_CKPT_DISK_BYTES='" + tooBig + "' overflows a byte size");
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", "99999999999999999999999"),
            "PARAD_CKPT_DISK_BYTES='99999999999999999999999' overflows a "
            "byte size");
  std::string overG = std::to_string((kMax >> 30) + 1) + "G";
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", overG),
            "PARAD_CKPT_DISK_BYTES='" + overG + "' overflows a byte size");
}

TEST(ByteSize, EnvKnobsParseStrictly) {
  for (const char* knob : kByteKnobs) {
    SCOPED_TRACE(knob);
    {
      EnvVar unset(knob, "");  // empty means unset: no cap
      EXPECT_EQ(envByteSize(knob), 0u);
    }
    {
      EnvVar set(knob, "64M");
      EXPECT_EQ(envByteSize(knob), std::size_t{64} << 20);
    }
    for (const char* bad : {"64X", "-1", "abc"}) {
      EnvVar set(knob, bad);
      try {
        (void)envByteSize(knob);
        ADD_FAILURE() << bad << " was accepted";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string(knob) + "='" + bad +
                      "' is not a byte size (expected decimal digits, "
                      "optionally followed by K, M or G)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The knob tables and the README tables that document them.

namespace {

// The first cells of the README table rows that open with a code span
// ("| `PARAD_X` |", "| `key=V` |"), without the backticks, in order.
std::vector<std::string> readmeCodeCells() {
  std::ifstream in(PARAD_SOURCE_DIR "/README.md");
  EXPECT_TRUE(in.good()) << "cannot read README.md";
  std::vector<std::string> cells;
  for (std::string line; std::getline(in, line);) {
    std::size_t end = line.find('`', 3);
    if (line.rfind("| `", 0) == 0 && end != std::string::npos)
      cells.push_back(line.substr(3, end - 3));
  }
  return cells;
}

}  // namespace

TEST(Knobs, EnvTableIsSortedAndUnique) {
  std::vector<std::string> names;
  for (const Knob& k : envKnobs()) names.emplace_back(k.name);
  EXPECT_EQ(names.size(), 24u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(Knobs, ReadmeTablesMatchTheKnobTables) {
  std::vector<std::string> envRows, faultRows;
  for (const std::string& cell : readmeCodeCells()) {
    std::string key = cell.substr(0, cell.find('='));
    bool lowercase = std::all_of(key.begin(), key.end(), [](char c) {
      return (c >= 'a' && c <= 'z') || c == '_';
    });
    if (cell.rfind("PARAD_", 0) == 0)
      envRows.push_back(cell);  // spread over several tables
    else if (key.size() < cell.size() && lowercase)
      faultRows.push_back(key);  // the PARAD_FAULTS key table
  }
  std::sort(envRows.begin(), envRows.end());
  std::vector<std::string> knobs;
  for (const Knob& k : envKnobs()) knobs.emplace_back(k.name);
  EXPECT_EQ(envRows, knobs);

  // In the order of the key table.
  std::vector<std::string> keys;
  for (std::string_view k : psim::faultSpecKeys()) keys.emplace_back(k);
  EXPECT_EQ(faultRows, keys);
}

// ---------------------------------------------------------------------------
// Fingerprint values, pinned bit for bit: a change to the byte hash
// invalidates on-disk store records and checkpoint epochs, and a change to
// the IR fingerprint renames every codegen artifact.

TEST(Fingerprint, FnvOfFixedBytes) {
  const std::string text = "parad fnv-1a";
  EXPECT_EQ(io::fnv1a(text.data(), text.size()), 13650412366705294144ull);
  EXPECT_EQ(io::fnv1a("", 0), 0xcbf29ce484222325ull);
  // Chaining continues from the previous value.
  EXPECT_EQ(io::fnv1a(text.data() + 6, text.size() - 6,
                      io::fnv1a(text.data(), 6)),
            io::fnv1a(text.data(), text.size()));
}

TEST(Fingerprint, AppFunctionsAndTheirClosures) {
  ir::Module lulesh = apps::lulesh::build(apps::lulesh::Config{});
  ir::Module bude = apps::minibude::build(apps::minibude::Config{});
  EXPECT_EQ(interp::fingerprint(lulesh.get("lulesh")), 11346651789346025276ull);
  EXPECT_EQ(interp::fingerprint(bude.get("bude")), 7713922580860394248ull);
  apps::lulesh::prepare(lulesh);
  apps::minibude::prepare(bude);
  // Closure fingerprints also hash the codegen generator version (now 4).
  EXPECT_EQ(interp::closureFingerprint(
                *interp::compileClosure(lulesh, lulesh.get("lulesh"))),
            2247010072605321932ull);
  EXPECT_EQ(interp::closureFingerprint(
                *interp::compileClosure(bude, bude.get("bude"))),
            10920133873870976190ull);
}

namespace {

// The first instruction of `r` (pre-order) with op `op`.
ir::Inst* findOp(ir::Region& r, ir::Op op) {
  for (ir::Inst& in : r.insts) {
    if (in.op == op) return &in;
    for (ir::Region& sub : in.regions)
      if (ir::Inst* found = findOp(sub, op)) return found;
  }
  return nullptr;
}

double nanWithPayload(std::uint64_t payload) {
  std::uint64_t bits = 0x7ff8000000000000ull | payload;
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

}  // namespace

// The fingerprint hashes one word per field; a change to any single field
// that a pass can mutate must change it.
TEST(Fingerprint, EveryFieldChangesTheHash) {
  using ir::Op;
  using ir::Type;
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    ir::Value p = b.param(0);
    ir::Value zero = b.constF(0.0);
    ir::Value nan = b.constF(nanWithPayload(1));
    ir::Value k = b.constI(7);
    b.emitFor(b.constI(0), b.param(1), [&](ir::Value i) {
      b.store(p, i, b.fmul(b.load(p, i), b.fadd(zero, nan)));
    });
    b.ret(b.itof(k));
    b.finish();
  }
  const ir::Function& base = mod.get("f");
  const std::uint64_t fp = interp::fingerprint(base);
  EXPECT_EQ(interp::fingerprint(base), fp);

  struct Edit {
    const char* what;
    std::function<void(ir::Function&)> apply;
  };
  const std::vector<Edit> edits = {
      {"op", [](ir::Function& f) { findOp(f.body, Op::FMul)->op = Op::FAdd; }},
      {"result",
       [](ir::Function& f) {
         ir::Inst* in = findOp(f.body, Op::FMul);
         in->result = in->operands[0];
       }},
      {"operand",
       [](ir::Function& f) {
         ir::Inst* in = findOp(f.body, Op::FMul);
         in->operands[1] = in->operands[0];
       }},
      {"fconst 0.0 -> -0.0",
       [](ir::Function& f) { findOp(f.body, Op::ConstF)->fconst = -0.0; }},
      {"fconst NaN payload",
       [](ir::Function& f) {
         for (ir::Inst& in : f.body.insts)
           if (in.op == Op::ConstF && std::isnan(in.fconst))
             in.fconst = nanWithPayload(2);
       }},
      {"iconst",
       [](ir::Function& f) { findOp(f.body, Op::ConstI)->iconst = 8; }},
      {"sym", [](ir::Function& f) { findOp(f.body, Op::Store)->sym = "s"; }},
      {"flags",
       [](ir::Function& f) {
         findOp(f.body, Op::Store)->flags = ir::kFlagShadowAlloc;
       }},
      {"region arg",
       [](ir::Function& f) {
         ir::Inst* loop = findOp(f.body, Op::For);
         loop->regions[0].args[0] = loop->operands[0];
       }},
      {"region count",
       [](ir::Function& f) {
         findOp(f.body, Op::For)->regions.emplace_back();
       }},
      {"value type",
       [](ir::Function& f) { f.valueTypes.back() = Type::I64; }},
  };
  for (const Edit& e : edits) {
    SCOPED_TRACE(e.what);
    ir::Function edited = base;
    e.apply(edited);
    EXPECT_NE(interp::fingerprint(edited), fp);
  }
}

// A multiply carries a difference only upward, so the word step mixes each
// word before it meets the state. Without that, two sign flips (two bit-63
// changes) cancel exactly, and power-of-two constants differ only in the
// top bits of the hash.
TEST(Fingerprint, MultiWordEditsChangeTheHash) {
  auto wordHash = [](const std::vector<double>& ws) {
    Fnv1a f;
    for (double w : ws) f.f64(w);
    return f.h;
  };
  const std::vector<double> words = {1.0, 2.0, 3.0, 0.5, 4.0, 0.25, 8.0, 16.0};
  const std::uint64_t h0 = wordHash(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      SCOPED_TRACE(testing::Message() << "words " << i << ", " << j);
      std::vector<double> flipped = words;
      flipped[i] = -flipped[i];
      flipped[j] = -flipped[j];
      const std::uint64_t d = wordHash(flipped) ^ h0;
      EXPECT_NE(d >> 32, 0u);
      EXPECT_NE(d & 0xffffffffu, 0u);
      std::vector<double> swapped = words;
      std::swap(swapped[i], swapped[j]);
      EXPECT_NE(wordHash(swapped), h0);
    }
  }

  // The same edits on IR: f(x) = x * a + c.
  auto fingerprints = [](double a, double c) {
    ir::Module mod;
    ir::FunctionBuilder b(mod, "f", {ir::Type::F64}, ir::Type::F64);
    b.ret(b.fadd(b.fmul(b.param(0), b.constF(a)), b.constF(c)));
    b.finish();
    return std::pair{interp::fingerprint(mod.get("f")),
                     interp::closureFingerprint(
                         *interp::compileClosure(mod, mod.get("f")))};
  };
  const auto signs = fingerprints(2.0, 3.0);
  const auto flippedSigns = fingerprints(-2.0, -3.0);
  EXPECT_NE(signs.first, flippedSigns.first);
  EXPECT_NE(signs.second, flippedSigns.second);
  const auto scales = fingerprints(0.5, 2.0);
  const auto swappedScales = fingerprints(2.0, 0.5);
  EXPECT_NE(scales.first, swappedScales.first);
  EXPECT_NE(scales.second, swappedScales.second);
}

// ---------------------------------------------------------------------------
// Did-you-mean.

TEST(DidYouMean, SuggestsOnlyCloseNamesFirstWins) {
  const char* const names[] = {"exec", "tree", "codegen"};
  EXPECT_EQ(didYouMean("exe", names), " (did you mean 'exec'?)");
  EXPECT_EQ(didYouMean("trie", names), " (did you mean 'tree'?)");
  EXPECT_EQ(didYouMean("fortran", names), "");  // distance 3+: no guess
  // Ties go to the earliest candidate.
  const char* const tied[] = {"ab", "ba"};
  EXPECT_EQ(didYouMean("aa", tied), " (did you mean 'ab'?)");
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(editDistance("", "abc"), 3u);
}

// ---------------------------------------------------------------------------
// Byte-capped LRU.

TEST(ByteLru, TouchOrderEvictionAndAccounting) {
  ByteLru<std::string, int> lru;
  EXPECT_EQ(lru.put("a", 1, 10, 0), 0u);
  EXPECT_EQ(lru.put("b", 2, 10, 0), 0u);
  EXPECT_EQ(lru.put("c", 3, 10, 0), 0u);
  EXPECT_EQ(lru.bytes(), 30u);
  EXPECT_EQ(lru.get("zz"), nullptr);

  // A hit makes "a" most recently used, so "b" is now the eviction victim.
  ASSERT_NE(lru.get("a"), nullptr);
  EXPECT_EQ(*lru.get("a"), 1);
  EXPECT_EQ(lru.put("d", 4, 10, 30), 1u);
  EXPECT_EQ(lru.get("b"), nullptr);
  EXPECT_NE(lru.get("a"), nullptr);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.bytes(), 30u);

  // Replacing an entry re-accounts its bytes and moves it to the front.
  EXPECT_EQ(lru.put("c", 33, 4, 0), 0u);
  EXPECT_EQ(*lru.get("c"), 33);
  EXPECT_EQ(lru.bytes(), 24u);

  // An insert larger than the cap evicts everything else but survives.
  EXPECT_EQ(lru.put("big", 5, 100, 50), 3u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 100u);
  EXPECT_EQ(*lru.get("big"), 5);

  // Erase and clear keep the byte sum exact.
  lru.put("e", 6, 7, 0);
  EXPECT_TRUE(lru.erase("big"));
  EXPECT_FALSE(lru.erase("big"));
  EXPECT_EQ(lru.bytes(), 7u);
  lru.put("f", 7, 8, 0);
  EXPECT_EQ(lru.eraseIf([](const std::string& k, int) { return k == "f"; }),
            1u);
  EXPECT_EQ(lru.bytes(), 7u);
  EXPECT_EQ(lru.clear(), 1u);
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
}
