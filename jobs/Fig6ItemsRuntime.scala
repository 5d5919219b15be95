package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 6: running time vs number of items s (Configuration 7, per-item
  * budget k = 50) on the Twitter stand-in.
  *
  * Paper shape: greedyWM's cost depends only on the maximum budget and is
  * flat in s; item-disj pays one IMM at budget k*s; bundle-disj pays s
  * IMM calls at budget k. At s = 10 the paper reports greedyWM ~8x faster
  * than bundle-disj and ~2.5x than item-disj.
  *
  * Usage: `Fig6ItemsRuntime [network] [k]`.
  */
object Fig6ItemsRuntime {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Fig6ItemsRuntime")
    val g = network(args.headOption.getOrElse("Twitter"))
    val k = if (args.length > 1) args(1).toInt else 50
    run(spark, g, k).show()
    spark.stop()
  }

  /** Allocation time per item count of `items`. Gates at the largest s
    * (items.last): greedyWM beats bundle-disj and item-disj, and is under
    * 4x its time at the smallest s (or 4 x 500 ms).
    */
  def run(spark: SparkSession, g: SocialGraph, k: Int = 50, items: Seq[Int] = 1 to 10): Table = {
    val ms = allocations(spark, g,
      for (s <- items; a <- multiItemAlgos) yield (a, Configs.config7(s), Array.fill(s)(k))).map(_._2)
    val cells = items.zip(ms.grouped(multiItemAlgos.length)).map { case (s, t) => s -> multiItemAlgos.zip(t).toMap }
    val (first, last) = (cells.head._2, cells.last._2)
    val (g1, gs) = (first(AlgoGreedyWM), last(AlgoGreedyWM))
    val failed = unmet(Seq(
      (gs < last(AlgoBundleDisj)) -> s"greedyWM $gs ms should beat bundle-disj ${last(AlgoBundleDisj)} ms at s=${items.last}",
      (gs < last(AlgoItemDisj)) -> s"greedyWM $gs ms should beat item-disj ${last(AlgoItemDisj)} ms at s=${items.last}",
      (gs < 4 * math.max(g1, 500)) -> s"greedyWM time should be ~flat in s: s=${items.head} -> $g1 ms, s=${items.last} -> $gs ms",
    ))
    Table(s"Fig 6: allocation time (ms) vs #items on ${g.name} (Config 7, k=$k)",
      Seq("#items") ++ multiItemAlgos,
      cells.map { case (s, t) => Seq[Any](s) ++ multiItemAlgos.map(a => s"${t(a)} ms") }, failed)
  }
}
