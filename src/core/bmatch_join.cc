#include "core/bmatch_join.h"

namespace gpmv {

Result<MatchResult> BMatchJoin(const Pattern& qb, const ViewSet& views,
                               const std::vector<ViewExtension>& exts,
                               const ContainmentMapping& mapping,
                               const MatchJoinOptions& opts,
                               MatchJoinStats* stats) {
  return MatchJoin(qb, views, exts, mapping, opts, stats);
}

}  // namespace gpmv
