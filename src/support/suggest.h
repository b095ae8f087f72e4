// "Did you mean" hints for rejected names (fault-spec keys, engine specs,
// PARAD_SERVE_* knobs): the nearest known name by edit distance, offered
// only when it is genuinely close.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace parad {

/// Levenshtein distance (small strings only).
inline std::size_t editDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// " (did you mean 'c'?)" for the candidate c nearest to `name`, or "" when
/// none is within edit distance 2 (a distance-5 "match" is noise). Ties go
/// to the earliest candidate.
template <class Names>
std::string didYouMean(std::string_view name, const Names& candidates) {
  std::string_view best;
  std::size_t bestDist = std::string_view::npos;
  for (std::string_view c : candidates) {
    std::size_t d = editDistance(name, c);
    if (d < bestDist) {
      bestDist = d;
      best = c;
    }
  }
  if (bestDist > 2) return "";
  return " (did you mean '" + std::string(best) + "'?)";
}

}  // namespace parad
