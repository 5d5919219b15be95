package repro.items

/** Block accounting (§5.2, Algorithm 2), the device of greedyWM's
  * approximation analysis: it partitions the global optimum itemset `I*`
  * into blocks of non-negative marginal utility in the `≺` order of [[Blocks]].
  */
object BlockAccounting {

  /** The globally optimal itemset `I*` for a noise world: the utility-
    * maximising subset of the full universe, ties broken toward larger
    * cardinality (§5.2). Items outside `I*` can never be adopted.
    */
  def globalOptimum(util: Array[Double]): Int =
    Adoption.adopt(util, util.length - 1, 0)

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
    val order = Blocks.itemOrder(budgets)
    val iStar = globalOptimum(util)

    // Sequence I: non-empty subsets of I*, in ≺ (ranked-numeric) order.
    // Work in ranked space, evaluate utility in original space.
    var remaining: List[Int] = Itemsets
      .nonEmptySubsets(Blocks.toRanked(iStar, order))
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
