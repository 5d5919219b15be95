package repro.items

/** The item ranking and itemset precedence order `≺` of §5.2.
  *
  * Items are ranked by non-increasing budget (ties by original index); in
  * ranked space the paper's precedence order `≺` over itemsets coincides
  * with numeric order of bitmasks where ranked item `r` carries bit weight
  * `2^r`: comparing the highest differing item index is exactly comparing
  * the most significant differing bit. `item-disj` seeds items in
  * [[itemOrder]]; `bundle-disj` reads `≺` through [[toRanked]].
  * Algorithm 2's block accounting over this order is a proof device and
  * lives with its tests.
  */
object Blocks {

  /** Ranked item order: `order(r)` is the original item of rank `r`,
    * sorted by non-increasing budget, ties by original index (the paper's
    * "arbitrary but fixed" tie-break).
    */
  def itemOrder(budgets: Array[Int]): Array[Int] =
    budgets.indices.sortBy(i => (-budgets(i), i)).toArray

  /** Convert an original-item mask to ranked space, where `s ≺ t` iff
    * `toRanked(s, order) < toRanked(t, order)`.
    */
  def toRanked(mask: Int, order: Array[Int]): Int = {
    var out = 0; var r = 0
    while (r < order.length) {
      if ((mask & (1 << order(r))) != 0) out |= 1 << r
      r += 1
    }
    out
  }
}
