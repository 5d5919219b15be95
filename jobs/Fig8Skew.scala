package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
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
  def main(args: Array[String]): Unit =
    JobSession.run("Fig8Skew")(spark => run(spark, network(args.headOption.getOrElse("Douban-Movie"))).show())

  /** greedyWM's welfare and time per named 10-item split, ordered from the
    * least to the most skewed. Gates: each split's welfare at least 0.98 of
    * the next one's, and the last split's time at least half the first's.
    */
  def run(spark: SparkSession, g: SocialGraph,
          splits: Seq[(String, Array[Int])] = Configs.skewDistributions, runs: Int = mcRuns): Table = {
    val cfg = Configs.config7(10)
    val results = welfare(spark, g, splits.map { case (_, b) => (AlgoGreedyWM, cfg, b) }, runs)
    val cells = splits.zip(results).map { case ((name, budgets), (est, millis)) => (name, budgets, est.welfare, millis) }
    val ((firstName, _, _, firstMs), (lastName, _, _, lastMs)) = (cells.head, cells.last)
    val failed = unmet(cells.zip(cells.tail).map { case ((a, _, wa, _), (b, _, wb, _)) =>
      (wa >= wb * 0.98) -> s"$a $wa should be >= $b $wb"
    } :+ (lastMs >= firstMs / 2) ->
      s"$lastName ($lastMs ms) should not be faster than ~$firstName ($firstMs ms)")
    Table(s"Fig 8(c): greedyWM under budget skew on ${g.name} (runs=$runs)",
      Seq("distribution", "budgets", "E[welfare]", "time"),
      cells.map { case (n, b, w, ms) => Seq[Any](n, b.mkString(","), w, s"$ms ms") }, failed)
  }
}
