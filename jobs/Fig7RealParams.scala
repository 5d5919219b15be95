package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments
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
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Fig7RealParams")
    run(spark, Experiments.network(args.headOption.getOrElse("Douban-Movie"))).show()
    spark.stop()
  }

  /** Welfare and time per total budget of `totals`. Gates: greedyWM at
    * least 0.95 of bundle-disj at every total and above it at the last;
    * item-disj's welfare exactly 0 at total 200 over 8 runs.
    */
  def run(spark: SparkSession, g: SocialGraph, totals: Seq[Int] = Seq(100, 200, 300, 400, 500),
          runs: Int = mcRuns): Table = {
    val cfg = Configs.realPs4
    // JIT warm-up so the first measured cell is not dominated by classloading
    Experiments.run(AlgoGreedyWM, spark, g, cfg, Configs.realSplit(100), runs = 1)
    val cells = totals.map { total =>
      val budgets = Configs.realSplit(total)
      (total, Experiments.run(AlgoGreedyWM, spark, g, cfg, budgets, runs),
        Experiments.run(AlgoBundleDisj, spark, g, cfg, budgets, runs))
    }
    val (_, gwMax, bdMax) = cells.last
    val itemDisj = Experiments.run(AlgoItemDisj, spark, g, cfg, Configs.realSplit(200), runs = 8).welfare
    val failed = unmet(cells.map { case (t, gw, bd) =>
      (gw.welfare >= bd.welfare * 0.95) -> s"total $t: greedyWM ${gw.welfare} below bundle-disj ${bd.welfare}"
    } ++ Seq(
      (gwMax.welfare > bdMax.welfare) ->
        s"at total ${totals.last} greedyWM ${gwMax.welfare} should beat bundle-disj ${bdMax.welfare}",
      (itemDisj == 0.0) -> s"item-disj welfare $itemDisj at total 200",
    ))
    Table(s"Fig 7(a,b): PS4 bundle on ${g.name} (runs=$runs)",
      Seq("total budget", "greedyWM welfare", "bundle-disj welfare", "greedyWM ms", "bundle-disj ms"),
      cells.map { case (t, gw, bd) => Seq[Any](t, gw.welfare, bd.welfare, gw.millis, bd.millis) }, failed)
  }
}
