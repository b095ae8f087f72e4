#include "src/psim/failure.h"

#include <iomanip>
#include <sstream>

namespace parad::psim {

std::string FailureReport::render() const {
  std::ostringstream os;
  os << "virtual machine " << kindName() << ": " << detail;
  if (kind == Kind::RankKilled) {
    os << "\n  dead rank: " << killedRank << ", last checkpoint epoch: ";
    if (lastEpoch >= 0)
      os << lastEpoch;
    else
      os << "none";
  }
  for (const RestoreEvent& e : restoreTrail) {
    os << "\n  " << (e.elastic ? "elastic migration" : "restore") << ": rank "
       << e.killedRank << " killed @ " << std::fixed << std::setprecision(1)
       << e.killClock << "ns, "
       << (e.elastic ? "shard adopted from epoch " : "rolled back to epoch ")
       << e.epoch << ", resumed @ " << e.resumeClock << "ns";
  }
  // Cap the per-rank listing: a 4096-rank report should lead with the
  // headline, not bury it under thousands of identical snapshot lines.
  constexpr std::size_t kMaxRanks = 12;
  std::size_t shown = 0;
  for (const RankSnapshot& r : ranks) {
    if (shown++ == kMaxRanks) {
      os << "\n  … and " << (ranks.size() - kMaxRanks) << " more ranks";
      break;
    }
    os << "\n  rank " << r.rank << " @ " << std::fixed << std::setprecision(1)
       << r.clock << "ns: " << r.op;
    if (!r.detail.empty()) os << " (" << r.detail << ")";
    if (r.requestId >= 0) os << " req=" << r.requestId;
    os << ", inbox depth " << r.inboxDepth;
  }
  return os.str();
}

}  // namespace parad::psim
