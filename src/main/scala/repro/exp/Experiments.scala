package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.comic.ComicBaselines
import repro.epic.Welfare
import repro.graph.{GraphGen, SocialGraph}

/** Shared experiment harness: allocation dispatch, welfare evaluation and
  * pretty-printing for every evaluation table/figure. Jobs and bench
  * suites are thin wrappers over these functions.
  */
object Experiments {

  val AlgoGreedyWM = "greedyWM"
  val AlgoItemDisj = "item-disj"
  val AlgoBundleDisj = "bundle-disj"
  val AlgoRRSimPlus = "RR-SIM+"
  val AlgoRRCim = "RR-CIM"

  val twoItemAlgos: Seq[String] =
    Seq(AlgoGreedyWM, AlgoRRSimPlus, AlgoRRCim, AlgoItemDisj, AlgoBundleDisj)
  val multiItemAlgos: Seq[String] = Seq(AlgoGreedyWM, AlgoItemDisj, AlgoBundleDisj)

  /** Monte-Carlo runs per welfare estimate (overridable for quick runs). */
  def mcRuns: Int = sys.env.getOrElse("REPRO_MC_RUNS", "40").toInt

  /** RR-set cap for the Com-IC baselines (they are intentionally slow). */
  def comicMaxRR: Int = sys.env.getOrElse("REPRO_COMIC_MAX_RR", "120000").toInt

  final case class AlgoRun(
      network: String,
      config: String,
      algo: String,
      budgets: Array[Int],
      welfare: Double,
      adoptions: Double,
      millis: Long,
  )

  /** Compute the allocation of `algo` for `cfg` and `budgets`. */
  def allocate(algo: String, spark: SparkSession, g: SocialGraph,
               cfg: Configs.Config, budgets: Array[Int],
               eps: Double = 0.5, ell: Double = 1.0, seed: Long = 7): Allocation.Alloc =
    algo match {
      case AlgoGreedyWM =>
        GreedyWM.allocate(spark, g, budgets, eps, ell, seed).alloc
      case AlgoItemDisj =>
        Baselines.itemDisj(spark, g, budgets, eps, ell, seed)
      case AlgoBundleDisj =>
        Baselines.bundleDisj(spark, g, budgets, cfg.detUtil, eps, ell, seed)
      case AlgoRRSimPlus =>
        require(budgets.length == 2, "RR-SIM+ supports exactly two items")
        val (sA, sB) = ComicBaselines.rrSimPlus(spark, g, budgets(0), budgets(1), cfg.gap,
          eps, ell, seed, maxRR = comicMaxRR)
        Allocation.fromItemSeeds(Seq(sA, sB))
      case AlgoRRCim =>
        require(budgets.length == 2, "RR-CIM supports exactly two items")
        val (sA, sB) = ComicBaselines.rrCim(spark, g, budgets(0), budgets(1), cfg.gap,
          eps, ell, seed, maxRR = comicMaxRR)
        Allocation.fromItemSeeds(Seq(sA, sB))
      case other => sys.error(s"unknown algorithm $other")
    }

  /** Allocate with `algo`, then estimate expected welfare under EPIC. */
  def run(algo: String, spark: SparkSession, g: SocialGraph,
          cfg: Configs.Config, budgets: Array[Int],
          runs: Int = mcRuns, seed: Long = 7): AlgoRun = {
    val t0 = System.nanoTime()
    val alloc = allocate(algo, spark, g, cfg, budgets, seed = seed)
    val millis = (System.nanoTime() - t0) / 1000000
    val est = Welfare.estimate(spark, g, alloc, cfg.model, runs, seed = seed * 31 + 1)
    AlgoRun(g.name, cfg.name, algo, budgets, est.welfare, est.adoptions, millis)
  }

  // -------------------------------------------------------------------
  // Pretty printing
  // -------------------------------------------------------------------

  def printTable(title: String, headers: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    val all = headers +: rows.map(_.map {
      case d: Double => f"$d%.1f"
      case x => x.toString
    })
    val widths = headers.indices.map(i => all.map(_(i).toString.length).max)
    def fmt(r: Seq[Any]): String =
      r.zip(widths).map { case (c, w) => c.toString.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println()
    println(s"== $title ==")
    println(fmt(headers))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    rows.foreach(r => println(fmt(r.map {
      case d: Double => f"$d%.1f"
      case x => x
    })))
  }

  /** Budget grids used in §6.2: uniform k in 10..50, non-uniform b2 in
    * 30..110 with b1 = 70. Overridable via REPRO_BUDGET_POINTS to trim
    * bench time.
    */
  def twoItemBudgetGrid(uniform: Boolean): Seq[Array[Int]] = {
    val points = sys.env.get("REPRO_BUDGET_POINTS").map(_.toInt)
    val grid =
      if (uniform) Seq(10, 20, 30, 40, 50).map(Configs.uniformTwoItem)
      else Seq(30, 50, 70, 90, 110).map(Configs.nonUniformTwoItem)
    points.fold(grid)(p => thin(grid, p))
  }

  def multiItemTotalGrid: Seq[Int] = {
    val grid = Seq(500, 600, 700, 800, 900, 1000)
    sys.env.get("REPRO_BUDGET_POINTS").map(_.toInt).fold(grid)(p => thin(grid, p))
  }

  private def thin[A](xs: Seq[A], p: Int): Seq[A] =
    if (p >= xs.length) xs
    else if (p <= 1) Seq(xs.last)
    else xs.zipWithIndex
      .filter { case (_, i) => i % math.max(1, xs.length / p) == 0 || i == xs.length - 1 }
      .map(_._1)
      .take(p)

  // -------------------------------------------------------------------
  // Cached networks (generation is deterministic but not free).
  // -------------------------------------------------------------------

  private val netCache = scala.collection.mutable.Map.empty[String, SocialGraph]

  /** The named stand-in network, built once even under concurrent callers. */
  def network(name: String): SocialGraph = netCache.synchronized {
    netCache.getOrElseUpdate(name, name match {
      case "Flixster" => GraphGen.flixsterLite()
      case "Douban-Book" => GraphGen.doubanBookLite()
      case "Douban-Movie" => GraphGen.doubanMovieLite()
      case "Twitter" => GraphGen.twitterLite()
      case other => sys.error(s"unknown network $other")
    })
  }

  val networkNames: Seq[String] = Seq("Flixster", "Douban-Book", "Douban-Movie", "Twitter")
}
