package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 7(c) / Fig. 8(c): effect of budget skew on greedyWM. Total budget
  * 500 over 10 items (Configuration 7), split uniform / moderate skew /
  * large skew.
  *
  * Paper shape: welfare highest under uniform, lowest under large skew;
  * running time shows the opposite trend (large skew selects the most
  * seeds, so it is the slowest).
  *
  * Usage: `Fig8Skew [network]` (default Douban-Movie for 7(c) parity;
  * the appendix variant uses Twitter).
  */
object Fig8Skew {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Fig8Skew")
    run(spark, Experiments.network(args.headOption.getOrElse("Douban-Movie"))).show()
    spark.stop()
  }

  /** greedyWM's welfare and time per named 10-item split, ordered from the
    * least to the most skewed. Gates: each split's welfare at least 0.98 of
    * the next one's, and the last split's time at least half the first's.
    */
  def run(spark: SparkSession, g: SocialGraph,
          splits: Seq[(String, Array[Int])] = Configs.skewDistributions, runs: Int = mcRuns): Table = {
    val cfg = Configs.config7(10)
    // JIT warm-up so the first measured cell is not dominated by classloading
    Experiments.run(AlgoGreedyWM, spark, g, cfg, Array.fill(10)(10), runs = 1)
    val cells = splits.map { case (name, budgets) =>
      (name, budgets, Experiments.run(AlgoGreedyWM, spark, g, cfg, budgets, runs))
    }
    val (first, last) = (cells.head._3, cells.last._3)
    val failed = unmet(cells.zip(cells.tail).map { case ((a, _, ra), (b, _, rb)) =>
      (ra.welfare >= rb.welfare * 0.98) -> s"$a ${ra.welfare} should be >= $b ${rb.welfare}"
    } :+ (last.millis >= first.millis / 2) ->
      s"${cells.last._1} (${last.millis} ms) should not be faster than ~${cells.head._1} (${first.millis} ms)")
    Table(s"Fig 8(c): greedyWM under budget skew on ${g.name} (runs=$runs)",
      Seq("distribution", "budgets", "E[welfare]", "time"),
      cells.map { case (n, b, r) => Seq[Any](n, b.mkString(","), r.welfare, s"${r.millis} ms") }, failed)
  }
}
