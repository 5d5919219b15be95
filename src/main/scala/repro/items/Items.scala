package repro.items

import java.util.SplittableRandom

/** Bitmask helpers for itemsets. Items are `0 until k`
  * (k ≤ `UtilityModel.MaxItems`); an itemset is an `Int` mask with bit `i`
  * set iff item `i` is in the set.
  */
object Itemsets {
  def size(mask: Int): Int = Integer.bitCount(mask)

  def items(mask: Int): Seq[Int] =
    (0 until 32).filter(i => (mask & (1 << i)) != 0)

  /** All non-empty subsets of `mask`. */
  def nonEmptySubsets(mask: Int): Seq[Int] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Int]
    var s = mask
    while (s != 0) { out += s; s = (s - 1) & mask }
    out.toSeq
  }
}

/** Builders of the paper's valuation families. Each returns the dense
  * table `V(mask)` over all `2^k` masks that [[UtilityModel]] holds; the
  * experiments' valuations are monotone and supermodular (the learned
  * Table-5 valuation is the documented exception, see DESIGN.md).
  */
object Valuations {

  /** `V(mask) = value(mask)` for every mask over `k` items. */
  def tabulate(k: Int)(value: Int => Double): Array[Double] = Array.tabulate(UtilityModel.tableSize(k))(value)

  /** Additive (modular) valuation: `V(S) = sum of per-item values`. */
  def additive(perItem: Array[Double]): Array[Double] = tabulate(perItem.length) { mask =>
    var v = 0.0; var i = 0
    while (i < perItem.length) { if ((mask & (1 << i)) != 0) v += perItem(i); i += 1 }
    v
  }

  /** Two-item valuation from Table 3: `V(i1)`, `V(i2)`, `V({i1,i2})`,
    * supermodular when `V(both) >= V(i1)+V(i2)`.
    */
  def twoItem(v1: Double, v2: Double, v12: Double): Array[Double] = Array(0.0, v1, v2, v12)

  /** "Cone" valuation of Configurations 8/9: supersets of the `core` item have
    * deterministic utility `5 + 2*(|S|-1)` (given unit prices), every other
    * set has negative utility. `V(S) = |S| + 5 + 2(|S|-1)` when core present,
    * 0 otherwise — monotone and supermodular (see DESIGN.md).
    */
  def cone(k: Int, core: Int): Array[Double] = tabulate(k) { mask =>
    val s = Integer.bitCount(mask)
    if ((mask & (1 << core)) == 0) 0.0 else s + 5.0 + 2.0 * (s - 1)
  }
}

object LevelWiseValuation {

  /** Configuration 10: a random monotone SUPERMODULAR valuation built
    * level-by-level in the itemset lattice.
    *
    * Reproduction note: the paper's Eq. (6) assigns the marginal of `i`
    * given `A\{i}` as the best lower-level marginal plus `eps ~ U[1,5]`
    * and then assembles `V(A)` with a max over last-item chains. That
    * assembly is NOT supermodular for all random draws (counterexamples
    * exist at k = 4; the max can make a later marginal smaller than an
    * earlier one). We therefore use the equivalent-in-spirit construction
    * documented in DESIGN.md: random NON-NEGATIVE interaction weights
    * `w(T)` on every lattice set `T` (level-wise: pairs draw the paper's
    * `eps ~ U[1,5]`, higher levels draw geometrically damped boosts) and
    * `V(S) = sum of w(T) over T ⊆ S`. Non-negative weights on |T| >= 2
    * make V supermodular; non-negative singleton weights make it
    * monotone; level-1 utilities still have the paper's mixed signs.
    */
  def build(k: Int, prices: Array[Double], seed: Long): Array[Double] = {
    require(prices.length == k)
    val rng = new SplittableRandom(seed)
    val nMasks = UtilityModel.tableSize(k)
    val w = new Array[Double](nMasks)

    // Level 1: a random ~half of the items get non-negative utility.
    // Values stay strictly positive so V remains monotone (§3.1).
    for (i <- 0 until k) {
      val positive = rng.nextBoolean()
      w(1 << i) =
        if (positive) prices(i) + rng.nextDouble() * 2.0
        else prices(i) * (0.05 + rng.nextDouble() * 0.85)
    }

    // Levels 2..k: pairs get eps ~ U[1,5] (the paper's boost); larger
    // sets get damped boosts so marginals grow roughly linearly per
    // level, like Eq. (6).
    for (mask <- 1 until nMasks) {
      val t = Integer.bitCount(mask)
      if (t >= 2) {
        val damp = math.pow(2.0, -(t - 2).toDouble)
        w(mask) = (1.0 + rng.nextDouble() * 4.0) * damp / math.max(1, t - 1)
      }
    }

    // V(S) = sum over subsets T of S of w(T), via sum-over-subsets DP.
    val v = w.clone()
    for (i <- 0 until k; mask <- 0 until nMasks if (mask & (1 << i)) != 0)
      v(mask) += v(mask & ~(1 << i))
    v
  }
}

/** Per-item zero-mean Gaussian noise, additive across items (§3.1). */
final case class NoiseSpec(stds: Array[Double]) {
  require(stds.forall(s => s >= 0 && s < Double.PositiveInfinity),
    s"noise standard deviations must be finite and non-negative, got ${stds.mkString("[", ", ", "]")}")
  def k: Int = stds.length

  /** One noise world: a draw of per-item noise terms. */
  def sample(rng: SplittableRandom): Array[Double] =
    stds.map(s => if (s == 0.0) 0.0 else rng.nextGaussian() * s)

  /** The zero noise world (deterministic utilities). */
  def zero: Array[Double] = new Array[Double](k)
}

object NoiseSpec {
  def uniform(k: Int, std: Double): NoiseSpec = NoiseSpec(Array.fill(k)(std))
}

/** The full EPIC utility model `U(S) = V(S) - P(S) + N(S)` (Param in the
  * paper): the valuation as its dense table over all `2^k` masks
  * (see [[Valuations]]), additive price, additive zero-mean noise.
  */
final case class UtilityModel(valuation: Array[Double], prices: Array[Double], noise: NoiseSpec) {
  require(valuation.length == UtilityModel.tableSize(prices.length),
    s"value table must have 2^k = ${1 << prices.length} entries for k = ${prices.length} prices, got ${valuation.length}")
  require(valuation(0) == 0.0, "V(empty) must be 0")
  require(noise.k == prices.length, "noise must have one std per item")
  def k: Int = prices.length

  /** Utility table for a given noise world: `U(mask) = V(mask)` plus the
    * additive table of `noise(i) - price(i)`.
    */
  def utilityTable(noiseSample: Array[Double]): Array[Double] = {
    val out = Valuations.additive(Array.tabulate(k)(i => noiseSample(i) - prices(i)))
    var mask = 0
    while (mask < out.length) { out(mask) += valuation(mask); mask += 1 }
    out
  }

  /** Deterministic utility `V(S) - P(S)` (noise ignored), as used by
    * bundle-disj and in the configuration tables.
    */
  def deterministicUtility: Array[Double] = utilityTable(noise.zero)

  /** Sample a noise world and return its utility table. */
  def sampleUtilityTable(rng: SplittableRandom): Array[Double] =
    utilityTable(noise.sample(rng))

  /** `SetFunctions.isSupermodular` of every noise world's utility table,
    * decided once for the model.
    *
    * A world's table is `V` plus the additive table of the terms
    * `a(i) = noise(i) - price(i)`, and an additive table adds 0 to each
    * slack `f(S+i+j) - f(S+j) - f(S+i) + f(S)` that the check compares with
    * `-Tol`. So the world's check and this check on `V` read the same
    * slacks up to rounding: `utilityTable` moves each entry by at most
    * `k·2^-53·(max|V| + Σ|a(i)|)` and each check's differences add about
    * `6·2^-53` of that scale, so the answers can differ only when some slack
    * of `V` lies within `(4k + 12)·2^-53·(max|V| + Σ|a(i)|)` of `-Tol`. For
    * the figures' configurations that is under 10^-11 against `Tol` = 10^-9,
    * and their slacks are either at least about 0 or far below `-Tol`.
    */
  lazy val supermodular: Boolean = SetFunctions.isSupermodular(valuation)
}

object UtilityModel {

  /** The most items the system supports: every kernel reads `2^k`-entry
    * tables, and allocations hold itemsets as `Int` masks.
    */
  final val MaxItems = 20

  /** `2^k`, after checking `0 <= k <= MaxItems`; builders call it before
    * allocating a table.
    */
  def tableSize(k: Int): Int = {
    require(k >= 0 && k <= MaxItems, s"at most $MaxItems items are supported (utility tables have 2^k entries), got $k")
    1 << k
  }
}

/** Set-function property checks: the adoption rule's choice for a model's
  * worlds ([[UtilityModel.supermodular]]), tests and configuration
  * builders check valuations.
  */
object SetFunctions {
  /** The tolerance of every utility comparison here and in [[Adoption]]. */
  private[items] final val Tol = 1e-9

  /** True iff `f` (as a dense table over `2^k` masks) is supermodular:
    * `f(S+i) - f(S) <= f(T+i) - f(T)` for all `S ⊆ T`, `i ∉ T`.
    */
  def isSupermodular(f: Array[Double]): Boolean = {
    val k = Integer.numberOfTrailingZeros(f.length)
    // Equivalent local criterion: for every pair i < j and every S without
    // them, f(S+i+j) - f(S+j) >= f(S+i) - f(S). Pair by pair, S walks the
    // subsets of the other items, so no mask is tested for i or j.
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) {
        val bi = 1 << i
        val bj = 1 << j
        val others = (f.length - 1) & ~(bi | bj)
        var s = others
        var more = true
        while (more) {
          if (f(s | bi | bj) - f(s | bj) < f(s | bi) - f(s) - Tol) return false
          more = s != 0
          s = (s - 1) & others
        }
        j += 1
      }
      i += 1
    }
    true
  }

  /** True iff `f` is monotone non-decreasing under set inclusion. */
  def isMonotone(f: Array[Double]): Boolean = {
    val k = Integer.numberOfTrailingZeros(f.length)
    var s = 0
    while (s < f.length) {
      var i = 0
      while (i < k) {
        if ((s & (1 << i)) == 0 && f(s | (1 << i)) < f(s) - Tol) return false
        i += 1
      }
      s += 1
    }
    true
  }
}
