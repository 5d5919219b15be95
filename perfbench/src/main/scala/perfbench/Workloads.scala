package perfbench

import org.apache.spark.sql.SparkSession

import repro.comic.ComicBaselines
import repro.core.{Allocation, Configs}
import repro.epic.Welfare
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.{GraphGen, SocialGraph}
import repro.jobs.Fig5MultiItemWelfare

/** Everything an operation needs: the session, the tracer, the generated
  * graph and the algorithm and welfare seeds derived from the workload seed.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val g: SocialGraph,
                val algoSeed: Long, val welfareSeed: Long)

/** What one operation produced.
  *
  * @param phases   seconds of each timed call inside the operation, by metric name
  * @param digests  fingerprints of its outputs; the same operation on the
  *                 same seed must reproduce them exactly
  * @param problems failed output checks
  * @param values   workload figures such as welfare, by name
  */
final case class OpResult(phases: Map[String, Double], digests: Map[String, Long],
                          problems: Seq[String], values: Map[String, Double] = Map.empty)

/** One benchmark workload: how to build its inputs and what one closed-loop
  * operation runs. Each operation is a cell of one of the paper's figures.
  */
sealed abstract class Workload(val name: String) {
  /** The stand-in network, generated from the derived graph seed. */
  def graph(seed: Long): SocialGraph

  /** The utility configuration and budgets greedyWM allocates for. */
  def config: Configs.Config
  def budgets: Array[Int]

  /** Work done once per run after the graph is built; it counts in
    * `setup_s`. Returns its phase timings.
    */
  def prepare(ctx: Ctx): OpResult = OpResult(Map.empty, Map.empty, Nil)

  /** Calls made before timing so the JIT has compiled the hot paths. Any
    * digests it returns are compared with the operations'.
    */
  def warmUp(ctx: Ctx): OpResult

  def op(ctx: Ctx): OpResult

  /** Allocate through the experiment dispatch, timed, traced and checked. */
  protected def allocate(ctx: Ctx, algo: String, cfg: Configs.Config,
                         budgets: Array[Int]): (Allocation.Alloc, OpResult) = {
    val t0 = System.nanoTime()
    val alloc = ctx.tracer.span(s"alloc.$algo") {
      Experiments.allocate(algo, ctx.spark, ctx.g, cfg, budgets, seed = ctx.algoSeed)
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    (alloc, OpResult(Map(Workload.allocMetric(algo) -> seconds),
      Map(s"alloc.$algo" -> Checks.digest(alloc).toLong),
      Checks.allocation(algo, alloc, budgets, ctx.g.n)))
  }

  protected def allocateAll(ctx: Ctx, algos: Seq[String]): OpResult =
    Workload.merge(algos.map(a => allocate(ctx, a, config, budgets)._2))
}

object Workload {

  def allocMetric(algo: String): String = algo match {
    case AlgoGreedyWM => "alloc_greedywm_s"
    case AlgoItemDisj => "alloc_itemdisj_s"
    case AlgoBundleDisj => "alloc_bundledisj_s"
    case AlgoRRSimPlus => "alloc_rrsimplus_s"
    case AlgoRRCim => "alloc_rrcim_s"
  }

  def merge(rs: Seq[OpResult]): OpResult =
    OpResult(rs.flatMap(_.phases).toMap, rs.flatMap(_.digests).toMap,
      rs.flatMap(_.problems), rs.flatMap(_.values).toMap)

  val all: Seq[Workload] = Seq(GreedyWMWide, Fig5DoubanWelfare, Fig4FlixsterComic)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** greedyWM over ten wide budgets: few large PRIMM calls, so RR sampling
  * and MaxCover over a large collection dominate.
  */
object GreedyWMWide extends Workload("greedywm-twitter-wide") {
  def graph(seed: Long): SocialGraph = GraphGen.twitterLite(seed)
  val config: Configs.Config = Configs.config7(10)
  val budgets: Array[Int] = Array.tabulate(10)(i => 200 * (i + 1))
  // Ten 50-seed budgets: the same code at a third of the cost. Its digest
  // is not compared, since the budgets differ.
  def warmUp(ctx: Ctx): OpResult =
    allocate(ctx, AlgoGreedyWM, config, Array.fill(10)(50))._2.copy(digests = Map.empty)
  def op(ctx: Ctx): OpResult = allocateAll(ctx, Seq(AlgoGreedyWM))
}

/** Fig 5 welfare: the three allocations are built in set-up; an operation
  * estimates each under Configurations 7 and 10, so EPIC diffusion and the
  * adoption rule do the work and no RR sampling runs.
  */
object Fig5DoubanWelfare extends Workload("fig5-douban-welfare") {
  val k = 10
  val total = 1000
  val worlds = 200
  val configNos: Seq[Int] = Seq(7, 10)

  def graph(seed: Long): SocialGraph = GraphGen.doubanMovieLite(seed)
  val budgets: Array[Int] = Fig5MultiItemWelfare.budgetsFor(7, k, total)
  val config: Configs.Config = Fig5MultiItemWelfare.configFor(7, k, budgets)

  private val configs: Seq[(Int, Array[Int], Configs.Config)] = configNos.map { no =>
    val b = Fig5MultiItemWelfare.budgetsFor(no, k, total)
    (no, b, Fig5MultiItemWelfare.configFor(no, k, b))
  }
  // (config no, algorithm) -> allocation, filled by `prepare`
  private var allocs = Map.empty[(Int, String), Allocation.Alloc]

  override def prepare(ctx: Ctx): OpResult = {
    // greedyWM and item-disj ignore utilities: one allocation serves every
    // configuration with the same budgets. bundle-disj reads the utilities.
    val shared = scala.collection.mutable.Map.empty[(String, Seq[Int]), (Allocation.Alloc, OpResult)]
    val results = for ((no, b, cfg) <- configs; algo <- multiItemAlgos) yield {
      val (alloc, r) =
        if (algo == AlgoBundleDisj) allocate(ctx, algo, cfg, b)
        else shared.getOrElseUpdate((algo, b.toSeq), allocate(ctx, algo, cfg, b))
      allocs += (no, algo) -> alloc
      r.copy(digests = r.digests.map { case (key, d) => s"$key.c$no" -> d })
    }
    Workload.merge(results)
  }

  def allocation(no: Int, algo: String): Allocation.Alloc = allocs((no, algo))

  def estimate(ctx: Ctx, no: Int, algo: String, runs: Int): (Welfare.Estimate, Double) = {
    val cfg = configs.find(_._1 == no).get._3
    val t0 = System.nanoTime()
    val est = ctx.tracer.span("welfare.estimate") {
      Welfare.estimate(ctx.spark, ctx.g, allocs((no, algo)), cfg.model, runs, seed = ctx.welfareSeed)
    }
    (est, (System.nanoTime() - t0) / 1e9)
  }

  def warmUp(ctx: Ctx): OpResult = op(ctx)

  def op(ctx: Ctx): OpResult = {
    val cells = for (no <- configNos; algo <- multiItemAlgos) yield (no, algo, estimate(ctx, no, algo, worlds))
    val welfare = cells.map { case (no, algo, (est, _)) => (no, algo) -> est.welfare }.toMap
    // The Fig 5 gate: greedyWM within 0.9 of the best algorithm per config.
    val gate = configNos.flatMap { no =>
      val gw = welfare((no, AlgoGreedyWM))
      val best = multiItemAlgos.map(a => welfare((no, a))).max
      if (gw >= 0.9 * best) None else Some(f"config $no: greedyWM welfare $gw%.1f below 0.9 x best $best%.1f")
    }
    val ratio = configNos.map { no =>
      welfare((no, AlgoGreedyWM)) / multiItemAlgos.tail.map(a => welfare((no, a))).max
    }.min
    val gw7 = cells.find(c => c._1 == 7 && c._2 == AlgoGreedyWM).get._3._1
    OpResult(
      phases = Map("welfare_estimate_s" -> Stats.median(cells.map(_._3._2))),
      digests = welfare.map { case ((no, algo), w) => s"welfare.$algo.c$no" -> java.lang.Double.doubleToLongBits(w) },
      problems = gate,
      values = Map(
        "welfare_greedywm" -> gw7.welfare,
        "welfare_greedywm_stderr" -> Stats.stderr(gw7.perRunWelfare),
        "welfare_greedywm_adoptions" -> gw7.adoptions,
        "greedywm_welfare_ratio" -> ratio,
        "worlds" -> (cells.length * worlds).toDouble,
      ),
    )
  }
}

/** Fig 4 on Flixster: greedyWM next to the Com-IC baselines, whose
  * samplers run one forward simulation per RR set.
  */
object Fig4FlixsterComic extends Workload("fig4-flixster-comic") {
  def graph(seed: Long): SocialGraph = GraphGen.flixsterLite(seed)
  val config: Configs.Config = Configs.config1
  val budgets: Array[Int] = Configs.uniformTwoItem(50)
  val algos: Seq[String] = Seq(AlgoGreedyWM, AlgoRRSimPlus, AlgoRRCim)

  /** greedyWM, then both Com-IC baselines capped at 5000 RR sets: their
    * samplers get compiled at a third of an operation's cost.
    */
  def warmUp(ctx: Ctx): OpResult = {
    val (b, gap) = (budgets(0), config.gap)
    ComicBaselines.rrSimPlus(ctx.spark, ctx.g, b, b, gap, seed = ctx.algoSeed, maxRR = 5000)
    ComicBaselines.rrCim(ctx.spark, ctx.g, b, b, gap, seed = ctx.algoSeed, maxRR = 5000)
    allocate(ctx, AlgoGreedyWM, config, budgets)._2
  }
  def op(ctx: Ctx): OpResult = allocateAll(ctx, algos)
}
