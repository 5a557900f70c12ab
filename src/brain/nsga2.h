#ifndef DLROVER_BRAIN_NSGA2_H_
#define DLROVER_BRAIN_NSGA2_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace dlrover {

/// Bounds of one decision variable. Integer variables are rounded to the
/// nearest integer after every variation operator.
struct DecisionBounds {
  double lo = 0.0;
  double hi = 1.0;
  bool integer = false;
};

/// Population size, generation count and seed. The variation operators'
/// rates and distribution indexes are constants in nsga2.cc.
struct Nsga2Options {
  int population = 48;
  int generations = 40;
  uint64_t seed = 7;
};

/// The two objective values of a candidate, both minimized. The paper's
/// problem has exactly two: (ResourceCost, 1/ThroughputGain).
using Nsga2Objectives = std::array<double, 2>;

/// A candidate solution with its objective values.
struct Nsga2Individual {
  std::vector<double> x;
  Nsga2Objectives objectives{};
  int rank = 0;
  double crowding = 0.0;
};

/// NSGA-II (Deb et al.) implemented from scratch for two objectives:
/// non-dominated sorting, crowding-distance diversity preservation, binary
/// tournament selection, simulated binary crossover, polynomial mutation.
/// The paper uses NSGA-II to generate the Pareto frontier of job resource
/// plans over the (ResourceCost, 1/ThroughputGain) objectives.
///
/// The population lives in flat buffers reused across generations, so a
/// generation allocates nothing; evaluation runs sequentially on the
/// caller's thread.
class Nsga2 {
 public:
  using Objectives = Nsga2Objectives;
  /// Objective function: maps a decision vector to its two objective
  /// values, both to be minimized. Must be deterministic and never return
  /// NaN.
  using ObjectiveFn = std::function<Objectives(const std::vector<double>&)>;

  Nsga2(std::vector<DecisionBounds> bounds, ObjectiveFn objective,
        const Nsga2Options& options);

  /// Runs the evolution and returns the final first (non-dominated) front,
  /// deduplicated by decision vector.
  std::vector<Nsga2Individual> Run();

  /// Non-dominated sort. Returns fronts of indices into `objectives`, best
  /// front first. Front 0 lists its members by ascending index; front k+1
  /// lists them by (position in front k of the member's last dominator in
  /// front k, index). That is the order Deb's all-pairs sort emits, and
  /// crowding ties depend on it. Exposed for tests.
  static std::vector<std::vector<size_t>> NonDominatedSort(
      const std::vector<Objectives>& objectives);

  /// Crowding distance of each member of one front (larger = lonelier).
  /// Exposed for tests.
  static std::vector<double> CrowdingDistances(
      const std::vector<Objectives>& objectives,
      const std::vector<size_t>& front);

  /// True if `a` Pareto-dominates `b` (<= in both, < in at least one).
  static bool Dominates(const Objectives& a, const Objectives& b) {
    return !(a[0] > b[0]) && !(a[1] > b[1]) && (a[0] < b[0] || a[1] < b[1]);
  }

 private:
  /// A sort key carried with the index it belongs to.
  struct SortItem {
    double value;
    size_t index;
  };

  /// Sort-based two-objective front peel with reusable scratch. After
  /// Sort(objs, n), front r is members()[begins()[r], begins()[r + 1]) in
  /// the order documented on NonDominatedSort.
  class FrontPeel {
   public:
    /// Sizes the scratch for up to `n` points, so Sort() allocates nothing.
    void Reserve(size_t n);
    void Sort(const Objectives* objs, size_t n);
    const std::vector<size_t>& members() const { return members_; }
    /// Front offsets into members(); one more than the number of fronts.
    const std::vector<size_t>& begins() const { return begin_; }
    /// For a point outside front 0: the position of its last dominator
    /// within the previous front.
    size_t last_dominator_pos(size_t p) const { return key_[p]; }

   private:
    struct LexKey {
      double f0;
      double f1;
      size_t index;
    };
    std::vector<LexKey> lex_;      // points by (f0, f1, index)
    std::vector<size_t> rank_;     // front of each index
    std::vector<Objectives> last_; // lex-last member of each front so far
    std::vector<size_t> grouped_;  // (f0, f1) order, grouped by front
    std::vector<size_t> by_index_; // index order, grouped by front
    std::vector<size_t> members_;  // emitted order, grouped by front
    std::vector<size_t> begin_;    // front offsets into the groupings
    std::vector<size_t> count_;    // counting-sort scratch
    std::vector<size_t> pos_;      // position of each index in its front
    std::vector<size_t> key_;      // position of its last dominator
    std::vector<size_t> window_;   // sliding-maximum deque
  };

  /// Crowding distances of front[0, n) into distance[0, n); `scratch`
  /// holds n items. Ties between equal objective values fall as the
  /// unstable std::sort leaves them, so this comparator over this input
  /// sequence is part of the output contract.
  static void Crowding(const Objectives* objs, const size_t* front, size_t n,
                       double* distance, SortItem* scratch);
  double* X(size_t slot) { return x_.data() + slot * bounds_.size(); }
  void Clamp(double* x) const;
  void Evaluate(size_t slot);
  size_t TournamentPick(size_t n);
  void SbxCrossover(const double* p1, const double* p2, double* c1,
                    double* c2);
  void PolynomialMutation(double* x);
  /// Sets rank_ and crowding_ of every slot listed in
  /// members[begin[r], begin[r + 1]) for each front r < fronts.
  void RankAndCrowd(const size_t* members, const size_t* begin, size_t fronts);
  /// Environmental selection: moves the best n of the 2n slots into slots
  /// [0, n) and ranks them.
  void SelectSurvivors(size_t n);

  std::vector<DecisionBounds> bounds_;
  ObjectiveFn objective_;
  Nsga2Options options_;
  Rng rng_;

  // Slots [0, N) hold the population, [N, 2N) its offspring; the `next_`
  // buffers receive the survivors and are swapped in each generation.
  std::vector<double> x_;
  std::vector<double> next_x_;
  std::vector<Objectives> obj_;
  std::vector<Objectives> next_obj_;
  std::vector<int> rank_;
  std::vector<double> crowding_;
  std::vector<double> spare_;   // the odd child a full brood discards
  std::vector<double> eval_x_;  // argument passed to the objective
  FrontPeel peel_;
  std::vector<size_t> selected_;  // the slot each survivor comes from
  std::vector<size_t> survivors_; // survivors' fronts in emitted order
  std::vector<size_t> survivor_begin_;
  std::vector<SortItem> items_;
  std::vector<double> distance_;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_NSGA2_H_
