package repro.core

import org.apache.spark.sql.SparkSession

import repro.graph.SocialGraph
import repro.im.PRIMM

/** greedyWM (Algorithm 1) — the paper's main contribution, a.k.a. the
  * greedy bundling allocation ("bundleGRD").
  *
  * Run PRIMM once for the maximum budget to get a prefix-preserving
  * ordered seed set, then give item `i` the top-`b_i` prefix. The
  * algorithm is utility-agnostic: it needs neither valuations, prices nor
  * noise distributions, only the budgets — the "power of bundling".
  */
object GreedyWM {

  final case class Result(alloc: Allocation.Alloc, orderedSeeds: Array[Int])

  def allocate(spark: SparkSession, g: SocialGraph, budgets: Array[Int],
               eps: Double = 0.5, seed: Long = 7): Result = {
    require(budgets.nonEmpty)
    // PRIMM wants the budget vector sorted non-increasingly; duplicates
    // add no information, so pass the distinct sorted budgets.
    val distinctDesc = budgets.distinct.sorted(Ordering[Int].reverse).toSeq
    val order = PRIMM.run(spark, g, distinctDesc, eps, seed = seed).seeds
    val alloc = Allocation.fromItemSeeds(budgets.map(b => order.take(b)).toSeq)
    Result(alloc, order)
  }
}
