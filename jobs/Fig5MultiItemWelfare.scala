package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 5: expected welfare with more than two items (configurations
  * 7-10), total budget 500..1000.
  *
  * Paper shape: greedyWM dominates (up to ~4x the baselines); under the
  * cone configs greedyWM and bundle-disj coincide when the core has the
  * right budget position.
  *
  * Usage: `Fig5MultiItemWelfare [network] [numItems]` (defaults:
  * Douban-Movie, 10 items).
  */
object Fig5MultiItemWelfare {
  def main(args: Array[String]): Unit = JobSession.run("Fig5MultiItemWelfare") { spark =>
    val network = args.headOption.getOrElse("Douban-Movie")
    val k = if (args.length > 1) args(1).toInt else 10
    run(spark, Experiments.network(network), Seq(7, 8, 9, 10), k).foreach(_.show())
  }

  /** The paper's total-budget sweep. */
  val totalGrid: Seq[Int] = Seq(500, 600, 700, 800, 900, 1000)

  /** Per configuration of `nos`, the welfare figure
    * ([[Experiments.welfareFigure]]) per total budget of `totals` with `k`
    * items.
    */
  def run(spark: SparkSession, g: SocialGraph, nos: Seq[Int], k: Int = 10,
          totals: Seq[Int] = totalGrid, runs: Int = mcRuns): Seq[Table] =
    welfareFigure(spark, g, multiItemAlgos, runs, "total budget", nos.map { no =>
      s"Fig 5: E[welfare] on ${g.name}, Configuration $no, $k items (runs=$runs)" -> totals.map { total =>
        val budgets = budgetsFor(no, k, total)
        (total.toString, configFor(no, k, budgets), budgets)
      }
    })

  /** Configs 7/10: uniform split; configs 8/9: [[Configs.skewedSplit]],
    * which holds the max at item 0 and the min at item k-1 or fails.
    */
  def budgetsFor(no: Int, k: Int, total: Int): Array[Int] =
    if (no == 7 || no == 10) Configs.uniformSplit(k, total)
    else Configs.skewedSplit(k, total)

  /** Config 8 cores the max-budget item, config 9 the min-budget item: on
    * [[budgetsFor]]'s skewed split, index 0 and index k-1.
    */
  def configFor(no: Int, k: Int, budgets: Array[Int]): Configs.Config = no match {
    case 7 => Configs.config7(k)
    case 8 => Configs.configCone(8, k, core = budgets.indexOf(budgets.max))
    case 9 => Configs.configCone(9, k, core = budgets.lastIndexOf(budgets.min))
    case 10 => Configs.config10(k)
    case other => sys.error(s"not a multi-item config: $other")
  }
}
