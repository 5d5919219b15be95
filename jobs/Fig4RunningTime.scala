package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Configs
import repro.exp.Experiments._
import repro.graph.SocialGraph

/** Fig. 4: running time of all five algorithms under Configuration 1, on
  * every network.
  *
  * Paper shape: greedyWM and bundle-disj coincide (one IMM call for the
  * single bundle); item-disj pays for a double-budget IMM; the Com-IC
  * algorithms are the slowest by orders of magnitude and time out on
  * Twitter. Here they are still the slowest, but by a small factor, and
  * they finish on the Twitter stand-in too (EXPERIMENTS.md): their
  * samplers answer each adoption question with a reverse reachability
  * query, not a forward simulation over the whole graph.
  *
  * Usage: `Fig4RunningTime [budget]` (default 50/50).
  */
object Fig4RunningTime {
  def main(args: Array[String]): Unit =
    JobSession.run("Fig4RunningTime")(spark => run(spark, budget = args.headOption.map(_.toInt).getOrElse(50)).show())

  /** Allocation time per network at budgets `budget`/`budget`, the median
    * of [[runtimeCalls]] calls with their range. Gate: on every network, the
    * slower Com-IC baseline's median is above greedyWM's (RR-CIM's first
    * IMM is greedyWM's PRIMM run).
    */
  def run(spark: SparkSession,
          graphs: Seq[SocialGraph] = networkNames.map(network),
          budget: Int = 50): Table = {
    val cfg = Configs.config1
    val budgets = Configs.uniformTwoItem(budget)
    val cells = graphs.map { g =>
      val ms = allocations(spark, g, twoItemAlgos.map(a => (a, cfg, budgets)), runtimeCalls)((_, _) => ()).map(_._2)
      g.name -> twoItemAlgos.zip(ms).toMap
    }
    val failed = unmet(cells.map { case (name, t) =>
      val comicSlowest = math.max(t(AlgoRRSimPlus).median, t(AlgoRRCim).median)
      (comicSlowest > t(AlgoGreedyWM).median) ->
        s"$name: Com-IC baselines ($comicSlowest ms) should be slower than greedyWM (${t(AlgoGreedyWM).median} ms)"
    })
    Table(s"Fig 4: allocation time (ms, median (range) of $runtimeCalls calls), Configuration 1, budgets ${budgets.mkString("/")}",
      Seq("network") ++ twoItemAlgos,
      cells.map { case (name, t) => Seq[Any](name) ++ twoItemAlgos.map(t) }, failed)
  }
}
