package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 7(a,b): real-parameter (PS4 bundle) welfare and running time of
  * greedyWM vs bundle-disj, total budget 100..500 split 30/30/20/10/10.
  * item-disj is omitted from the table: its welfare is 0 by construction
  * (no singleton has positive utility, §6.4.1), which a gate checks.
  *
  * Paper shape: greedyWM up to ~2x bundle-disj's welfare at high budgets;
  * bundle-disj ~1.5x slower (it makes several IMM calls).
  *
  * Usage: `Fig7RealParams [network]` (default Douban-Movie).
  */
object Fig7RealParams {
  def main(args: Array[String]): Unit =
    JobSession.run("Fig7RealParams")(spark => run(spark, network(args.headOption.getOrElse("Douban-Movie"))).show())

  /** Welfare and time per total budget of `totals`. Gates: greedyWM at
    * least 0.95 of bundle-disj at every total and above it at the last;
    * item-disj's welfare exactly 0 at total 200 over 8 runs.
    */
  def run(spark: SparkSession, g: SocialGraph, totals: Seq[Int] = Seq(100, 200, 300, 400, 500),
          runs: Int = mcRuns): Table = {
    val cfg = Configs.realPs4
    val algos = Seq(AlgoGreedyWM, AlgoBundleDisj)
    val results = welfare(spark, g,
      for (t <- totals; a <- algos) yield (a, cfg, Configs.realSplit(t)), runs)
    val cells = totals.zip(results.grouped(algos.length)).map {
      case (t, Seq((gw, gwMs), (bd, bdMs))) => (t, gw.welfare, bd.welfare, gwMs, bdMs)
    }
    val (_, gwMax, bdMax, _, _) = cells.last
    val itemDisj = welfare(spark, g, Seq((AlgoItemDisj, cfg, Configs.realSplit(200))), runs = 8).head._1.welfare
    val failed = unmet(cells.map { case (t, gw, bd, _, _) =>
      (gw >= bd * 0.95) -> s"total $t: greedyWM $gw below bundle-disj $bd"
    } ++ Seq(
      (gwMax > bdMax) -> s"at total ${totals.last} greedyWM $gwMax should beat bundle-disj $bdMax",
      (itemDisj == 0.0) -> s"item-disj welfare $itemDisj at total 200",
    ))
    Table(s"Fig 7(a,b): PS4 bundle on ${g.name} (runs=$runs)",
      Seq("total budget", "greedyWM welfare", "bundle-disj welfare", "greedyWM ms", "bundle-disj ms"),
      cells.map { case (t, gw, bd, gwMs, bdMs) => Seq[Any](t, gw, bd, gwMs, bdMs) }, failed)
  }
}
