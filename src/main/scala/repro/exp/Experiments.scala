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
    * so they draw many more than IMM does). The jobs and `bench/test` use
    * the 120,000 default; the benchmark (`perfbench/run.py`) pins 20,000 to
    * keep its fig4 workload inside its time budget.
    */
  def comicMaxRR: Int = sys.env.getOrElse("REPRO_COMIC_MAX_RR", "120000").toInt

  /** Compute the allocation of `algo` for `cfg` and `budgets`. */
  def allocate(algo: String, spark: SparkSession, g: SocialGraph,
               cfg: Configs.Config, budgets: Array[Int], seed: Long = 7): Allocation.Alloc =
    algo match {
      case AlgoGreedyWM =>
        GreedyWM.allocate(spark, g, budgets, seed = seed).alloc
      case AlgoItemDisj =>
        Baselines.itemDisj(spark, g, budgets, seed)
      case AlgoBundleDisj =>
        Baselines.bundleDisj(spark, g, budgets, cfg.detUtil, seed)
      case AlgoRRSimPlus | AlgoRRCim =>
        require(budgets.length == 2, s"$algo supports exactly two items")
        val comic = if (algo == AlgoRRSimPlus) ComicBaselines.rrSimPlus _ else ComicBaselines.rrCim _
        val (sA, sB) = comic(spark, g, budgets(0), budgets(1), cfg.gap, seed, comicMaxRR)
        Allocation.fromItemSeeds(Seq(sA, sB))
      case other => sys.error(s"unknown algorithm $other")
    }

  /** What [[allocate]] reads besides the graph and seed: the budgets for
    * greedyWM and item-disj, plus `cfg.detUtil` for bundle-disj and
    * `cfg.gap` for RR-SIM+ and RR-CIM. Equal keys, equal allocations.
    */
  def allocationKey(algo: String, cfg: Configs.Config, budgets: Array[Int]): (String, Seq[Int], Any) =
    (algo, budgets.toSeq, algo match {
      case AlgoGreedyWM | AlgoItemDisj => ()
      case AlgoBundleDisj => cfg.detUtil.toSeq
      case AlgoRRSimPlus | AlgoRRCim => cfg.gap
      case other => sys.error(s"unknown algorithm $other")
    })

  /** `body`'s result and its wall time in ms. */
  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    (body, (System.nanoTime() - t0) / 1000000)
  }

  private val warmed = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()

  /** One figure's allocation step: each `(algo, cfg, budgets)` cell's seed-7
    * allocation and its wall time in ms, made once per distinct
    * [[allocationKey]] in this call. An algorithm's first allocation in the
    * JVM runs once untimed before it, so no cell times class loading or JIT
    * compilation; JIT state is per JVM, and `warmed` holds only names.
    */
  def allocations(spark: SparkSession, g: SocialGraph,
                  cells: Seq[(String, Configs.Config, Array[Int])]): Seq[(Allocation.Alloc, Long)] = {
    val allocs = scala.collection.mutable.Map.empty[(String, Seq[Int], Any), (Allocation.Alloc, Long)]
    cells.map { case (algo, cfg, budgets) =>
      allocs.getOrElseUpdate(allocationKey(algo, cfg, budgets), {
        if (!warmed.contains(algo)) { allocate(algo, spark, g, cfg, budgets); warmed.add(algo) }
        timed(allocate(algo, spark, g, cfg, budgets))
      })
    }
  }

  /** One figure's welfare step: each cell's welfare over `runs` worlds from
    * seed 218 under its [[allocations]] allocation, with that allocation's ms.
    */
  def welfare(spark: SparkSession, g: SocialGraph, cells: Seq[(String, Configs.Config, Array[Int])],
              runs: Int): Seq[(Welfare.Estimate, Long)] =
    cells.zip(allocations(spark, g, cells)).map { case ((_, cfg, _), (alloc, millis)) =>
      (Welfare.estimate(spark, g, alloc, cfg.model, runs, seed = 218), millis)
    }

  /** Each table's `(label, cfg, budgets)` rows as labels with their welfare
    * per algorithm of `algos`, from one [[welfare]] step over all tables.
    */
  def welfareTables[L](spark: SparkSession, g: SocialGraph, algos: Seq[String], runs: Int)(
      tables: Seq[Seq[(L, Configs.Config, Array[Int])]]): Seq[Seq[(L, Seq[Double])]] = {
    val cells = for (rows <- tables; (_, cfg, budgets) <- rows; a <- algos) yield (a, cfg, budgets)
    val w = welfare(spark, g, cells, runs).iterator.map(_._1.welfare)
    tables.map(_.map { case (label, _, _) => label -> Seq.fill(algos.length)(w.next()) })
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
