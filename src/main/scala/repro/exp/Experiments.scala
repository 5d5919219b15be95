package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.comic.ComicBaselines
import repro.epic.Welfare
import repro.graph.{GraphGen, SocialGraph}

/** Shared experiment engine: allocation dispatch, welfare evaluation,
  * cached networks and table printing. Each table and figure is defined
  * once, in its `repro.jobs` object, on top of these functions.
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

  /** Monte-Carlo runs per welfare estimate. */
  val mcRuns: Int = 40

  /** RR-set cap for the Com-IC baselines (most of their RR sets are empty,
    * so they draw many more than IMM does).
    */
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
               eps: Double = 0.5, seed: Long = 7): Allocation.Alloc =
    algo match {
      case AlgoGreedyWM =>
        GreedyWM.allocate(spark, g, budgets, eps, seed).alloc
      case AlgoItemDisj =>
        Baselines.itemDisj(spark, g, budgets, eps, seed)
      case AlgoBundleDisj =>
        Baselines.bundleDisj(spark, g, budgets, cfg.detUtil, eps, seed)
      case AlgoRRSimPlus =>
        require(budgets.length == 2, "RR-SIM+ supports exactly two items")
        val (sA, sB) = ComicBaselines.rrSimPlus(spark, g, budgets(0), budgets(1), cfg.gap, eps, seed, comicMaxRR)
        Allocation.fromItemSeeds(Seq(sA, sB))
      case AlgoRRCim =>
        require(budgets.length == 2, "RR-CIM supports exactly two items")
        val (sA, sB) = ComicBaselines.rrCim(spark, g, budgets(0), budgets(1), cfg.gap, eps, seed, comicMaxRR)
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
  // Tables
  // -------------------------------------------------------------------

  /** One evaluation table or figure as computed: what `printTable` prints,
    * plus the paper-shape gates it failed (empty when the shape holds).
    */
  final case class Table(title: String, headers: Seq[String], rows: Seq[Seq[Any]],
                         failed: Seq[String]) {
    /** Print the table, then one line per failed gate. */
    def show(): Unit = {
      printTable(title, headers, rows)
      failed.foreach(f => println(s"paper-shape gate failed: $f"))
    }
  }

  /** The messages of the gates whose condition is false. */
  def unmet(gates: Seq[(Boolean, String)]): Seq[String] = gates.collect { case (false, msg) => msg }

  def printTable(title: String, headers: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    val cells = headers +: rows.map(_.map {
      case d: Double => f"$d%.1f"
      case x => x.toString
    })
    val widths = headers.indices.map(i => cells.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    println()
    println(s"== $title ==")
    println(fmt(cells.head))
    println(widths.map("-" * _).mkString("|-", "-|-", "-|"))
    cells.tail.foreach(r => println(fmt(r)))
  }

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
