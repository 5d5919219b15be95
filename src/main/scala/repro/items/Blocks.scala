package repro.items

/** Block accounting (§5.2, Algorithm 2).
  *
  * Items are ranked by non-increasing budget (ties by original index); in
  * ranked space the paper's precedence order `≺` over itemsets coincides
  * with numeric order of bitmasks where ranked item `r` carries bit weight
  * `2^r`: comparing the highest differing item index is exactly comparing
  * the most significant differing bit.
  *
  * The block sequence partitions the global optimum itemset `I*` into
  * atomic units with non-negative marginal utility; blocks drive the
  * `bundle-disj`-style reasoning and the approximation analysis (anchors,
  * proposed/effective budgets), all of which are unit-tested against the
  * paper's worked examples. `bundle-disj` reads `≺` through [[toRanked]].
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

  /** Convert a ranked-space mask to original-item space. */
  def rankedToOrigMask(rankedMask: Int, order: Array[Int]): Int = {
    var out = 0; var r = 0
    while (r < order.length) {
      if ((rankedMask & (1 << r)) != 0) out |= 1 << order(r)
      r += 1
    }
    out
  }

  /** Result of Algorithm 2 plus the derived budget/anchor structure.
    *
    * All masks in this class are in ORIGINAL item space; `order` gives the
    * ranked item permutation used for `≺`.
    */
  final case class BlockSeq(
      order: Array[Int],
      budgets: Array[Int],
      iStar: Int,
      blocks: Vector[Int],
      deltas: Vector[Double],
  ) {
    /** Proposed budget `b_i` = min budget among the block's items. */
    def proposedBudget(i: Int): Int = Itemsets.items(blocks(i)).map(budgets).min

    /** Effective budget = min proposed budget among blocks `0..i`. */
    def effectiveBudget(i: Int): Int = (0 to i).map(proposedBudget).min

    def isOverBudgeted(i: Int): Boolean = effectiveBudget(i) < proposedBudget(i)

    /** Index of the anchor block of block `i`: itself when properly
      * budgeted, else the minimum-proposed-budget block among `0..i-1`
      * (ties toward the highest index).
      */
    def anchorBlockIdx(i: Int): Int =
      if (!isOverBudgeted(i)) i
      else (0 until i).minBy(j => (proposedBudget(j), -j))

    /** Anchor item of block `i`: the highest-RANKED (smallest-budget) item
      * of its anchor block, returned as an original item index.
      */
    def anchorItem(i: Int): Int = {
      val blk = blocks(anchorBlockIdx(i))
      val rankOf = order.zipWithIndex.toMap
      Itemsets.items(blk).maxBy(rankOf)
    }
  }

  /** Algorithm 2 over the full universe: first restrict to the global
    * optimum `I*` of the supplied noise-world utility table, then scan the
    * `≺`-ordered subset sequence greedily.
    */
  def generate(util: Array[Double], budgets: Array[Int]): BlockSeq = {
    val k = budgets.length
    require(util.length == (1 << k))
    val order = itemOrder(budgets)
    val iStar = Adoption.globalOptimum(util)

    // Sequence I: non-empty subsets of I*, in ≺ (ranked-numeric) order.
    // Work in ranked space, evaluate utility in original space.
    var remaining: List[Int] = Itemsets
      .nonEmptySubsets(toRanked(iStar, order))
      .sorted // numeric order == ≺ order in ranked space
      .toList

    var blocks = Vector.empty[Int] // original-space masks
    var deltas = Vector.empty[Double]
    var unionOrig = 0

    var cursor = remaining
    while (cursor.nonEmpty) {
      val bRanked = cursor.head
      val bOrig = rankedToOrigMask(bRanked, order)
      val delta = util(unionOrig | bOrig) - util(unionOrig)
      if (delta >= -1e-12) {
        blocks :+= bOrig
        deltas :+= delta
        unionOrig |= bOrig
        remaining = remaining.filter(m => (m & bRanked) == 0)
        cursor = remaining
      } else {
        cursor = cursor.tail
      }
    }
    BlockSeq(order, budgets, iStar, blocks, deltas)
  }
}
