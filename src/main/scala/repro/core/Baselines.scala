package repro.core

import org.apache.spark.sql.SparkSession

import repro.graph.SocialGraph
import repro.im.PRIMM
import repro.items.{Blocks, Itemsets}

/** The item-disj and bundle-disj baselines (§6.1.2.2 / §6.1.2.3). */
object Baselines {

  /** item-disj: one IMM call with budget `sum(b_i)`; visit items in
    * non-increasing budget order, give item `i` the next `b_i` unused
    * nodes of the ordering. Requires `sum(b_i) <= n`.
    */
  def itemDisj(spark: SparkSession, g: SocialGraph, budgets: Array[Int],
               seed: Long = 7): Allocation.Alloc = {
    val total = budgets.sum
    require(total <= g.n, s"item-disj needs sum of budgets ($total) <= node count (${g.n})")
    val order = PRIMM.imm(spark, g, total, seed = seed).seeds
    val perItem = Array.fill(budgets.length)(Array.empty[Int])
    var pos = 0
    for (i <- Blocks.itemOrder(budgets)) {
      perItem(i) = order.slice(pos, pos + budgets(i))
      pos += budgets(i)
    }
    Allocation.fromItemSeeds(perItem.toSeq)
  }

  /** bundle-disj: repeatedly find the minimum-sized itemset with
    * non-negative deterministic utility among items with remaining budget
    * (ties in the `≺` order), allocate it to a fresh set of
    * `b_B = min remaining budget` seeds (IMM with already-used nodes
    * forbidden), and decrement budgets. Leftover budget is first mapped
    * onto seeds of existing bundles not containing the item, then onto
    * fresh IMM seeds.
    */
  def bundleDisj(spark: SparkSession, g: SocialGraph, budgets: Array[Int],
                 detUtil: Array[Double], seed: Long = 7): Allocation.Alloc = {
    val k = budgets.length
    val remaining = budgets.clone()
    val perItem = Array.fill(k)(scala.collection.mutable.ArrayBuffer.empty[Int])
    var used = Set.empty[Int]
    var bundles = Vector.empty[(Int, Array[Int])] // (mask, seeds)
    var immCalls = 0L
    val order = Blocks.itemOrder(budgets)

    // `b` fresh seeds: IMM from the next seed, with every used node forbidden.
    def freshSeeds(b: Int): Array[Int] = {
      val seeds = PRIMM.imm(spark, g, b, seed = seed + immCalls, forbidden = used).seeds
      immCalls += 1
      used ++= seeds
      seeds
    }

    def nextBundle(): Option[Int] = {
      val active = (0 until k).filter(remaining(_) > 0)
      if (active.isEmpty) return None
      val activeMask = active.foldLeft(0)((m, i) => m | (1 << i))
      Itemsets
        .nonEmptySubsets(activeMask)
        .filter(m => detUtil(m) >= 0)
        .sortBy(m => (Itemsets.size(m), Blocks.toRanked(m, order)))
        .headOption
    }

    var done = false
    while (!done) {
      nextBundle() match {
        case None => done = true
        case Some(bundle) =>
          val items = Itemsets.items(bundle)
          val bB = items.map(remaining).min
          val seeds = freshSeeds(bB)
          bundles :+= (bundle, seeds)
          for (i <- items) { perItem(i) ++= seeds; remaining(i) -= bB }
      }
    }

    // Leftover phase: surplus budget first rides existing bundles that do
    // not contain the item, then falls back to fresh IMM seeds.
    for (i <- order if remaining(i) > 0) {
      for ((mask, seeds) <- bundles if remaining(i) > 0 && (mask & (1 << i)) == 0) {
        val fresh = seeds.filterNot(perItem(i).contains)
        val take = fresh.take(remaining(i))
        perItem(i) ++= take
        remaining(i) -= take.length
      }
      if (remaining(i) > 0) {
        perItem(i) ++= freshSeeds(remaining(i))
        remaining(i) = 0
      }
    }
    Allocation.fromItemSeeds(perItem.map(_.toArray).toSeq)
  }
}
