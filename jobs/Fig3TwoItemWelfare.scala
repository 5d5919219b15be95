package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 3 (and Fig. 8a/8b): expected social welfare of all five algorithms
  * on the two-item configurations.
  *
  * Paper shape: greedyWM dominates every baseline; RR-SIM+ and RR-CIM
  * track greedyWM closely (they end up copying its seeds); item-disj
  * collapses when singletons have negative deterministic utility
  * (configs 1-2) and trails elsewhere.
  *
  * Usage: `Fig3TwoItemWelfare [network] [configNo ...]`
  * Defaults: Douban-Movie, configs 2 3 5 6 (the ones shown in Fig. 3).
  */
object Fig3TwoItemWelfare {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Fig3TwoItemWelfare")
    val network = args.headOption.getOrElse("Douban-Movie")
    val configNos = if (args.length > 1) args.tail.map(_.toInt).toSeq else Seq(2, 3, 5, 6)
    val g = Experiments.network(network)
    configNos.foreach(no => run(spark, g, no)().show())
    spark.stop()
  }

  /** §6.2's budget sweeps: uniform k in 10..50, non-uniform b2 in 30..110
    * with b1 = 70.
    */
  def budgetGrid(uniform: Boolean): Seq[Array[Int]] =
    if (uniform) Seq(10, 20, 30, 40, 50).map(Configs.uniformTwoItem)
    else Seq(30, 50, 70, 90, 110).map(Configs.nonUniformTwoItem)

  /** Welfare per budget pair of `grid` under configuration `no`. Gates:
    * greedyWM within 0.9 of the best baseline at every budget pair; under
    * configuration 2 at 70/70, item-disj below half of greedyWM.
    */
  def run(spark: SparkSession, g: SocialGraph, no: Int)(
      grid: Seq[Array[Int]] = budgetGrid(Configs.table3(no - 1).uniformBudgets),
      runs: Int = mcRuns): Table = {
    val cfg = Configs.table3(no - 1)
    val cells = grid.map { budgets =>
      budgets.mkString("/") ->
        twoItemAlgos.map(a => a -> Experiments.run(a, spark, g, cfg, budgets, runs).welfare).toMap
    }
    val failed = unmet(cells.map { case (cell, w) =>
      val best = twoItemAlgos.tail.map(w).max
      (w(AlgoGreedyWM) >= 0.9 * best) -> s"budgets $cell: greedyWM ${w(AlgoGreedyWM)} far below best baseline $best"
    } ++ cells.collect { case ("70/70", w) if no == 2 =>
      (w(AlgoItemDisj) < 0.5 * w(AlgoGreedyWM)) -> s"70/70: item-disj ${w(AlgoItemDisj)} vs greedyWM ${w(AlgoGreedyWM)}"
    })
    Table(s"Fig 3: E[welfare] on ${g.name}, ${cfg.name} (runs=$runs)",
      Seq("budgets b1/b2") ++ twoItemAlgos,
      cells.map { case (cell, w) => Seq[Any](cell) ++ twoItemAlgos.map(w) }, failed)
  }
}
