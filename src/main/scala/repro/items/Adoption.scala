package repro.items

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

  private val Tol = 1e-9

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

  /** True iff `mask` is a local maximum of `util` (its utility is the max
    * over all its subsets) — the invariant of Lemma 3, used in tests.
    */
  def isLocalMaximum(util: Array[Double], mask: Int): Boolean = {
    val u = util(mask)
    var sub = mask
    var ok = true
    while (sub != 0 && ok) {
      sub = (sub - 1) & mask
      if (util(sub) > u + Tol) ok = false
    }
    ok
  }

  /** The globally optimal itemset `I*` for a noise world: the utility-
    * maximising subset of the full universe, ties broken toward larger
    * cardinality (§5.2). Items outside `I*` can never be adopted.
    */
  def globalOptimum(util: Array[Double]): Int =
    adopt(util, util.length - 1, 0)
}
