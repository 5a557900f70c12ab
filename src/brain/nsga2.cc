#include "brain/nsga2.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace dlrover {
namespace {
constexpr double kCrossoverProb = 0.9;
constexpr double kEtaCrossover = 15.0;  // SBX distribution index
constexpr double kEtaMutation = 20.0;   // polynomial mutation index
}  // namespace

Nsga2::Nsga2(std::vector<DecisionBounds> bounds, ObjectiveFn objective,
             const Nsga2Options& options)
    : bounds_(std::move(bounds)),
      objective_(std::move(objective)),
      options_(options),
      rng_(options.seed) {
  assert(!bounds_.empty());
}

void Nsga2::FrontPeel::Reserve(size_t n) {
  lex_.reserve(n);
  last_.reserve(n);
  for (auto* v : {&rank_, &grouped_, &by_index_, &members_, &pos_, &key_,
                  &window_}) {
    v->reserve(n);
  }
  begin_.reserve(n + 1);
  count_.reserve(n + 1);
}

// Two objectives admit an O(N log N) peel: visit the points in (f0, f1,
// index) order and put each in the first front whose latest member does
// not dominate it. That member has the smallest f1 of its front, so it
// dominates the point iff some member does, and domination by front r
// implies domination by every front before r, so the search can bisect.
//
// The fronts must then be emitted in the member order of Deb's all-pairs
// sort, which releases a point when its last dominator in the previous
// front is processed. In (f0, f1) order a front's f1 never rises, so the
// dominators of a point in the previous front are the contiguous run with
// f0 <= its f0 and f1 <= its f1, and both ends of that run only advance
// as the point moves along its own front: a sliding-window maximum over
// the previous front's positions finds each point's last dominator. The
// (last dominator, index) order is then a counting sort away.
void Nsga2::FrontPeel::Sort(const Objectives* objs, size_t n) {
  lex_.resize(n);
  for (size_t i = 0; i < n; ++i) lex_[i] = {objs[i][0], objs[i][1], i};
  std::sort(lex_.begin(), lex_.end(), [](const LexKey& a, const LexKey& b) {
    if (a.f0 != b.f0) return a.f0 < b.f0;
    if (a.f1 != b.f1) return a.f1 < b.f1;
    return a.index < b.index;
  });
  rank_.resize(n);
  last_.clear();
  for (const LexKey& k : lex_) {
    const Objectives point = {k.f0, k.f1};
    size_t lo = 0;
    size_t hi = last_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (Dominates(last_[mid], point)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == last_.size()) {
      last_.push_back(point);
    } else {
      last_[lo] = point;
    }
    rank_[k.index] = lo;
  }

  // Group by front twice: in (f0, f1) order for the dominator windows, and
  // in index order, the order of front 0 and the tie-break of the others.
  const size_t fronts = last_.size();
  begin_.assign(fronts + 1, 0);
  for (size_t p = 0; p < n; ++p) ++begin_[rank_[p] + 1];
  std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
  grouped_.resize(n);
  by_index_.resize(n);
  count_.assign(begin_.begin(), begin_.end() - 1);
  for (const LexKey& k : lex_) grouped_[count_[rank_[k.index]]++] = k.index;
  count_.assign(begin_.begin(), begin_.end() - 1);
  for (size_t p = 0; p < n; ++p) by_index_[count_[rank_[p]]++] = p;

  members_.resize(n);
  pos_.resize(n);
  key_.resize(n);
  window_.resize(n);
  for (size_t r = 0; r < fronts; ++r) {
    const size_t b = begin_[r];
    const size_t e = begin_[r + 1];
    if (r == 0) {
      std::copy(by_index_.begin() + b, by_index_.begin() + e,
                members_.begin() + b);
    } else {
      const size_t* prev = grouped_.data() + begin_[r - 1];
      const size_t prev_n = b - begin_[r - 1];
      size_t lo = 0;    // first of prev with f1 <= the point's f1
      size_t hi = 0;    // one past the last of prev with f0 <= its f0
      size_t head = 0;  // window_[head, tail): indices into prev whose
      size_t tail = 0;  // positions decrease from head to tail
      for (size_t i = b; i < e; ++i) {
        const size_t p = grouped_[i];
        while (hi < prev_n && objs[prev[hi]][0] <= objs[p][0]) {
          while (tail > head &&
                 pos_[prev[window_[tail - 1]]] < pos_[prev[hi]]) {
            --tail;
          }
          window_[tail++] = hi++;
        }
        while (lo < hi && objs[prev[lo]][1] > objs[p][1]) ++lo;
        while (window_[head] < lo) ++head;
        key_[p] = pos_[prev[window_[head]]];
      }
      count_.assign(prev_n + 1, 0);
      for (size_t i = b; i < e; ++i) ++count_[key_[by_index_[i]] + 1];
      std::partial_sum(count_.begin(), count_.end(), count_.begin());
      for (size_t i = b; i < e; ++i) {
        const size_t p = by_index_[i];
        members_[b + count_[key_[p]]++] = p;
      }
    }
    for (size_t i = b; i < e; ++i) pos_[members_[i]] = i - b;
  }
}

std::vector<std::vector<size_t>> Nsga2::NonDominatedSort(
    const std::vector<Objectives>& objectives) {
  FrontPeel peel;
  peel.Sort(objectives.data(), objectives.size());
  const std::vector<size_t>& members = peel.members();
  const std::vector<size_t>& begins = peel.begins();
  std::vector<std::vector<size_t>> fronts(begins.size() - 1);
  for (size_t r = 0; r < fronts.size(); ++r) {
    fronts[r].assign(members.begin() + begins[r],
                     members.begin() + begins[r + 1]);
  }
  return fronts;
}

void Nsga2::Crowding(const Objectives* objs, const size_t* front, size_t n,
                     double* distance, SortItem* scratch) {
  std::fill(distance, distance + n, 0.0);
  if (n == 0) return;
  for (size_t obj = 0; obj < 2; ++obj) {
    for (size_t i = 0; i < n; ++i) scratch[i] = {objs[front[i]][obj], i};
    std::sort(scratch, scratch + n, [](const SortItem& a, const SortItem& b) {
      return a.value < b.value;
    });
    distance[scratch[0].index] = std::numeric_limits<double>::infinity();
    distance[scratch[n - 1].index] = std::numeric_limits<double>::infinity();
    const double span = scratch[n - 1].value - scratch[0].value;
    if (span <= 0.0) continue;
    for (size_t i = 1; i + 1 < n; ++i) {
      distance[scratch[i].index] +=
          (scratch[i + 1].value - scratch[i - 1].value) / span;
    }
  }
}

std::vector<double> Nsga2::CrowdingDistances(
    const std::vector<Objectives>& objectives,
    const std::vector<size_t>& front) {
  std::vector<double> distance(front.size());
  std::vector<SortItem> scratch(front.size());
  Crowding(objectives.data(), front.data(), front.size(), distance.data(),
           scratch.data());
  return distance;
}

void Nsga2::Clamp(double* x) const {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    x[i] = std::clamp(x[i], bounds_[i].lo, bounds_[i].hi);
    if (bounds_[i].integer) x[i] = std::round(x[i]);
  }
}

void Nsga2::Evaluate(size_t slot) {
  std::copy_n(X(slot), bounds_.size(), eval_x_.begin());
  obj_[slot] = objective_(eval_x_);
  // The front peel sorts by objective value, which NaN would break.
  assert(!std::isnan(obj_[slot][0]) && !std::isnan(obj_[slot][1]));
}

void Nsga2::RankAndCrowd(const size_t* members, const size_t* begin,
                         size_t fronts) {
  for (size_t r = 0; r < fronts; ++r) {
    const size_t* front = members + begin[r];
    const size_t size = begin[r + 1] - begin[r];
    Crowding(obj_.data(), front, size, distance_.data(), items_.data());
    for (size_t i = 0; i < size; ++i) {
      rank_[front[i]] = static_cast<int>(r);
      crowding_[front[i]] = distance_[i];
    }
  }
}

void Nsga2::SelectSurvivors(size_t n) {
  peel_.Sort(obj_.data(), 2 * n);
  const std::vector<size_t>& members = peel_.members();
  const std::vector<size_t>& begins = peel_.begins();
  // Whole fronts while they fit, then the loneliest (largest crowding
  // distance) members of the first front that does not.
  size_t whole = 0;
  while (whole + 1 < begins.size() && begins[whole + 1] <= n) ++whole;
  const size_t kept = begins[whole];
  std::copy_n(members.begin(), kept, selected_.begin());
  if (kept < n) {
    const size_t size = begins[whole + 1] - kept;
    Crowding(obj_.data(), members.data() + kept, size, distance_.data(),
             items_.data());
    for (size_t i = 0; i < size; ++i) items_[i] = {distance_[i], i};
    std::sort(items_.begin(), items_.begin() + size,
              [](const SortItem& a, const SortItem& b) {
                return a.value > b.value;
              });
    for (size_t i = 0; kept + i < n; ++i) {
      selected_[kept + i] = members[kept + items_[i].index];
    }
  }
  const size_t dims = bounds_.size();
  for (size_t i = 0; i < n; ++i) {
    std::copy_n(X(selected_[i]), dims, next_x_.data() + i * dims);
    next_obj_[i] = obj_[selected_[i]];
  }
  x_.swap(next_x_);
  obj_.swap(next_obj_);

  // Rank the survivors as a fresh peel of slots [0, n) would. Every
  // dominator of a survivor is in a whole front, so fronts keep their
  // members; whole fronts, now in consecutive slots, keep their order; the
  // cut front is ordered by (position of its last dominator in the
  // previous front, slot), or by slot alone when it is front 0.
  std::iota(survivors_.begin(), survivors_.end(), size_t{0});
  std::copy_n(begins.begin(), whole + 1, survivor_begin_.begin());
  size_t fronts = whole;
  if (kept < n) {
    survivor_begin_[++fronts] = n;
    if (whole > 0) {
      std::sort(survivors_.begin() + kept, survivors_.end(),
                [this](size_t a, size_t b) {
                  const size_t ka = peel_.last_dominator_pos(selected_[a]);
                  const size_t kb = peel_.last_dominator_pos(selected_[b]);
                  return ka != kb ? ka < kb : a < b;
                });
    }
  }
  RankAndCrowd(survivors_.data(), survivor_begin_.data(), fronts);
}

size_t Nsga2::TournamentPick(size_t n) {
  const size_t a = rng_.UniformInt(n);
  const size_t b = rng_.UniformInt(n);
  if (rank_[a] != rank_[b]) return rank_[a] < rank_[b] ? a : b;
  return crowding_[a] >= crowding_[b] ? a : b;
}

void Nsga2::SbxCrossover(const double* p1, const double* p2, double* c1,
                         double* c2) {
  std::copy_n(p1, bounds_.size(), c1);
  std::copy_n(p2, bounds_.size(), c2);
  if (!rng_.Bernoulli(kCrossoverProb)) return;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (!rng_.Bernoulli(0.5)) continue;
    const double u = rng_.Uniform();
    const double eta = kEtaCrossover;
    const double beta =
        u <= 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
                 : std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0));
    const double x1 = p1[i];
    const double x2 = p2[i];
    c1[i] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
    c2[i] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
  }
  Clamp(c1);
  Clamp(c2);
}

void Nsga2::PolynomialMutation(double* x) {
  // Each variable mutates with probability 1/num_vars.
  const double mutation_prob = 1.0 / static_cast<double>(bounds_.size());
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (!rng_.Bernoulli(mutation_prob)) continue;
    const double span = bounds_[i].hi - bounds_[i].lo;
    if (span <= 0.0) continue;
    const double u = rng_.Uniform();
    const double eta = kEtaMutation;
    const double delta =
        u < 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0
                 : 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
    x[i] += delta * span;
  }
  Clamp(x);
}

std::vector<Nsga2Individual> Nsga2::Run() {
  const size_t n = static_cast<size_t>(options_.population);
  const size_t dims = bounds_.size();
  x_.assign(2 * n * dims, 0.0);
  next_x_.assign(2 * n * dims, 0.0);
  obj_.assign(2 * n, Objectives{});
  next_obj_.assign(2 * n, Objectives{});
  rank_.assign(n, 0);
  crowding_.assign(n, 0.0);
  spare_.assign(dims, 0.0);
  eval_x_.assign(dims, 0.0);
  selected_.assign(n, 0);
  survivors_.assign(n, 0);
  survivor_begin_.assign(n + 1, 0);
  items_.assign(2 * n, SortItem{0.0, 0});
  distance_.assign(2 * n, 0.0);
  peel_.Reserve(2 * n);

  // All randomness is drawn in the variation phase, in the same order as
  // the textbook loop; evaluation of the whole brood follows it.
  for (size_t i = 0; i < n; ++i) {
    double* x = X(i);
    for (size_t d = 0; d < dims; ++d) {
      x[d] = rng_.Uniform(bounds_[d].lo, bounds_[d].hi);
    }
    Clamp(x);
  }
  for (size_t i = 0; i < n; ++i) Evaluate(i);
  peel_.Sort(obj_.data(), n);
  RankAndCrowd(peel_.members().data(), peel_.begins().data(),
               peel_.begins().size() - 1);

  for (int gen = 0; gen < options_.generations; ++gen) {
    // Offspring fill slots [n, 2n). An odd population still breeds (and
    // mutates) the last pair's second child, into `spare_`.
    for (size_t made = 0; made < n; made += 2) {
      const size_t p1 = TournamentPick(n);
      const size_t p2 = TournamentPick(n);
      double* c1 = X(n + made);
      double* c2 = made + 1 < n ? X(n + made + 1) : spare_.data();
      SbxCrossover(X(p1), X(p2), c1, c2);
      PolynomialMutation(c1);
      PolynomialMutation(c2);
    }
    for (size_t i = n; i < 2 * n; ++i) Evaluate(i);

    SelectSurvivors(n);
  }

  // The final non-dominated front, first occurrence of each decision
  // vector only.
  std::vector<Nsga2Individual> front;
  front.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rank_[i] != 0) continue;
    const double* x = X(i);
    const bool seen =
        std::any_of(front.begin(), front.end(), [&](const Nsga2Individual& f) {
          return std::equal(f.x.begin(), f.x.end(), x);
        });
    if (seen) continue;
    Nsga2Individual& ind = front.emplace_back();
    ind.x.assign(x, x + dims);
    ind.objectives = obj_[i];
    ind.rank = 0;
    ind.crowding = crowding_[i];
  }
  return front;
}

}  // namespace dlrover
