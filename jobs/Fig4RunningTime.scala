package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 4: running time of all five algorithms under Configuration 1, on
  * every network.
  *
  * Paper shape: greedyWM and bundle-disj coincide (one IMM call for the
  * single bundle); item-disj pays for a double-budget IMM; the Com-IC
  * algorithms are the slowest by orders of magnitude and time out on
  * Twitter (mirrored here by skipping them on the stand-in). Here they are
  * still the slowest, but by a small factor (EXPERIMENTS.md): their
  * samplers answer each adoption question with a reverse reachability
  * query, not a forward simulation over the whole graph.
  *
  * Usage: `Fig4RunningTime [budget]` (default 50/50).
  */
object Fig4RunningTime {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("Fig4RunningTime")
    run(spark, budget = args.headOption.map(_.toInt).getOrElse(50)).show()
    spark.stop()
  }

  /** Allocation time per network at budgets `budget`/`budget`. Gate: on
    * every network but Twitter, the slower Com-IC baseline is slower than
    * greedyWM.
    */
  def run(spark: SparkSession,
          graphs: Seq[SocialGraph] = Experiments.networkNames.map(Experiments.network),
          budget: Int = 50): Table = {
    val cfg = Configs.config1
    val budgets = Configs.uniformTwoItem(budget)
    // JIT warm-up so the first measured cell is not dominated by classloading
    Experiments.allocate(AlgoGreedyWM, spark, graphs.head, cfg, budgets)
    val cells = graphs.map { g =>
      g.name -> twoItemAlgos.map {
        case a @ (AlgoRRSimPlus | AlgoRRCim) if g.name == "Twitter" =>
          a -> None // paper: timed out after 6 hours
        case a =>
          a -> Some(timed(Experiments.allocate(a, spark, g, cfg, budgets))._2)
      }.toMap
    }
    val failed = unmet(cells.collect { case (name, t) if name != "Twitter" =>
      val comicSlowest = math.max(t(AlgoRRSimPlus).get, t(AlgoRRCim).get)
      (comicSlowest > t(AlgoGreedyWM).get) ->
        s"$name: Com-IC baselines ($comicSlowest ms) should be slower than greedyWM (${t(AlgoGreedyWM).get} ms)"
    })
    Table(s"Fig 4: allocation time (ms), Configuration 1, budgets ${budgets.mkString("/")}",
      Seq("network") ++ twoItemAlgos,
      cells.map { case (name, t) =>
        Seq[Any](name) ++ twoItemAlgos.map(a => t(a).fold("timeout (paper >6h)")(ms => s"$ms ms"))
      }, failed)
  }
}
