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
  def main(args: Array[String]): Unit = JobSession.run("Fig3TwoItemWelfare") { spark =>
    val network = args.headOption.getOrElse("Douban-Movie")
    val configNos = if (args.length > 1) args.tail.map(_.toInt).toSeq else Seq(2, 3, 5, 6)
    run(spark, Experiments.network(network), configNos).foreach(_.show())
  }

  /** §6.2's budget sweeps: uniform k in 10..50, non-uniform b2 in 30..110
    * with b1 = 70.
    */
  def budgetGrid(uniform: Boolean): Seq[Array[Int]] =
    if (uniform) Seq(10, 20, 30, 40, 50).map(Configs.uniformTwoItem)
    else Seq(30, 50, 70, 90, 110).map(Configs.nonUniformTwoItem)

  /** Per configuration of `nos`, the welfare figure
    * ([[Experiments.welfareFigure]]) per budget pair of `grid` for its budget
    * regime, with [[itemDisjCollapse]] as its own gate.
    */
  def run(spark: SparkSession, g: SocialGraph, nos: Seq[Int],
          grid: Boolean => Seq[Array[Int]] = budgetGrid, runs: Int = mcRuns): Seq[Table] = {
    require(nos.forall(no => no >= 1 && no <= 6), s"Fig 3 covers configurations 1-6, got ${nos.mkString(",")}")
    welfareFigure(spark, g, twoItemAlgos, runs, "budgets b1/b2", nos.map { no =>
      val cfg = Configs.table3(no - 1)
      s"Fig 3: E[welfare] on ${g.name}, ${cfg.name} (runs=$runs)" ->
        grid(cfg.uniformBudgets).map(b => (b.mkString("/"), cfg, b))
    }, itemDisjCollapse)
  }

  /** Fig 3(a)'s collapse: under configuration 2 at 70/70, item-disj below
    * half of greedyWM.
    */
  def itemDisjCollapse(label: String, cfg: Configs.Config, w: Map[String, Double]): Seq[(Boolean, String)] =
    if (cfg.no == 2 && label == "70/70")
      Seq((w(AlgoItemDisj) < 0.5 * w(AlgoGreedyWM)) -> s"70/70: item-disj ${w(AlgoItemDisj)} vs greedyWM ${w(AlgoGreedyWM)}")
    else Nil
}
