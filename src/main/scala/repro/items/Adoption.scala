package repro.items

import SetFunctions.Tol

/** The EPIC node-level adoption rule (Fig. 2, step 3, and §4.1).
  *
  * Given the utility table of the current possible world, a desire set `R`
  * and the previously adopted set `A ⊆ R`, the node adopts
  * `T* = argmax { U(T) | A ⊆ T ⊆ R, U(T) >= 0 }`, breaking ties in favour
  * of larger cardinality. By Lemma 2 the union of tied maxima is itself a
  * maximum when `U` is supermodular, which makes it the unique maximal
  * optimum; the rule returns that union whenever it is an argmax, and a
  * largest-cardinality argmax otherwise (the learned PS4 valuation is not
  * supermodular, DESIGN.md §5.2).
  */
object Adoption {

  /** Adopt from desire set `desire` given previous adoption `prev`.
    *
    * `prev` is assumed to satisfy the model invariant `U(prev) >= 0` (it
    * was itself adopted earlier; the empty set has `U = 0`). Returns the
    * new adoption mask (always a superset of `prev`).
    */
  def adopt(util: Array[Double], desire: Int, prev: Int): Int = {
    require((prev & ~desire) == 0, "previous adoption must be within the desire set")
    var bestU = util(prev)
    var union = prev // union of the tied maxima
    var largest = prev // a largest-cardinality maximum
    // Enumerate T = prev | sub for every submask `sub` of desire \ prev.
    val free = desire & ~prev
    var sub = free
    while (sub != 0) {
      val t = prev | sub
      val u = util(t)
      if (u > bestU + Tol) { bestU = u; union = t; largest = t }
      else if (u >= bestU - Tol) {
        union |= t
        if (Integer.bitCount(t) > Integer.bitCount(largest)) largest = t
      }
      sub = (sub - 1) & free
    }
    if (util(union) >= bestU - Tol) union else largest
  }

  /** The rule for every node of one possible world, as
    * `(desire, prev) => adoption`; every node of the world reads `util`, and
    * `supermodular` is `SetFunctions.isSupermodular(util)`, decided by the
    * caller (once per model for a model's worlds, [[UtilityModel.supermodular]]).
    *
    * When `util` is supermodular the answer is `byDesire(util)(desire)`,
    * whatever `prev` is, provided `prev` was itself the rule's answer for a
    * smaller desire `R′ ⊆ R` (as every adoption in a diffusion is). Let
    * `A = prev` and let `B` be the union of the maxima of `U` over the
    * subsets of `R`, a maximum by Lemma 2. `A` is the union of the maxima
    * over the subsets of `R′`, so `U(A ∩ B) ≤ U(A)`; supermodularity gives
    * `U(A ∪ B) + U(A ∩ B) ≥ U(A) + U(B)`, so `U(A ∪ B) ≥ U(B)`, and `A ∪ B`
    * is a maximum over the subsets of `R`, hence within `B`: `A ⊆ B`. `B` is
    * then the union of the maxima above `A`, which is `adopt(util, R, A)`.
    * Any other world (the learned PS4 table is not supermodular) calls
    * [[adopt]] itself.
    */
  def inWorld(util: Array[Double], supermodular: Boolean): (Int, Int) => Int =
    if (supermodular) { val table = byDesire(util); (desire, _) => table(desire) }
    else (desire, prev) => adopt(util, desire, prev)

  /** `table(R)`: the union of the maxima of `util` over the subsets of `R`,
    * with ties as in [[adopt]], for every desire set `R`. The best subsets
    * of `R` are `R` itself and the best subsets of each `R` minus one item,
    * so one pass in increasing mask order costs `k·2^k` steps.
    */
  private[items] def byDesire(util: Array[Double]): Array[Int] = {
    val table = new Array[Int](util.length) // table(0) = 0, the empty set
    var r = 1
    while (r < util.length) {
      var bestU = util(r)
      var union = r
      var rest = r
      while (rest != 0) {
        val a = table(r & ~Integer.lowestOneBit(rest))
        val u = util(a)
        if (u > bestU + Tol) { bestU = u; union = a }
        else if (u >= bestU - Tol) union |= a
        rest &= rest - 1
      }
      table(r) = union
      r += 1
    }
    table
  }
}
