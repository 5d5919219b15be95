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

  /** Timed calls per cell of the runtime figures (Fig 4 and Fig 6), whose
    * cells and gates read the median call.
    */
  val runtimeCalls: Int = 5

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

  /** The wall times in ms of the timed calls of one allocation, in call order. */
  final case class Millis(calls: Seq[Long]) {
    require(calls.nonEmpty, "no timed call")
    /** The middle call (the upper middle one of an even count). */
    def median: Long = calls.sorted.apply(calls.length / 2)
    /** The median, with the range of the calls when there are several. */
    override def toString: String =
      if (calls.length == 1) s"$median ms" else s"$median ms (${calls.min}-${calls.max})"
  }

  private val warmed = java.util.concurrent.ConcurrentHashMap.newKeySet[(String, String)]()

  /** One figure's allocation step: for each `(algo, cfg, budgets)` cell in
    * order, `use(cfg, alloc)` of its seed-7 allocation, called as soon as the
    * allocation exists, and the wall times of `calls` calls making it.
    * Allocations are made once per distinct [[allocationKey]] in this call
    * (`calls` times, keeping the first). An algorithm's first allocation on
    * a network in the JVM runs once untimed before it, so no cell times
    * class loading or JIT compilation; JIT state is per JVM, and `warmed`
    * holds only names.
    */
  def allocations[A](spark: SparkSession, g: SocialGraph, cells: Seq[(String, Configs.Config, Array[Int])],
                     calls: Int = 1)(use: (Configs.Config, Allocation.Alloc) => A): Seq[(A, Millis)] = {
    require(calls >= 1, s"need at least one timed call, got $calls")
    val allocs = scala.collection.mutable.Map.empty[(String, Seq[Int], Any), (Allocation.Alloc, Millis)]
    cells.map { case (algo, cfg, budgets) =>
      val (alloc, millis) = allocs.getOrElseUpdate(allocationKey(algo, cfg, budgets), {
        if (!warmed.contains((algo, g.name))) { allocate(algo, spark, g, cfg, budgets); warmed.add((algo, g.name)) }
        val timed = Seq.fill(calls) {
          val t0 = System.nanoTime()
          (allocate(algo, spark, g, cfg, budgets), (System.nanoTime() - t0) / 1000000)
        }
        (timed.head._1, Millis(timed.map(_._2)))
      })
      (use(cfg, alloc), millis)
    }
  }

  /** One figure's welfare step: each cell's welfare over `runs` worlds from
    * seed 218 under its allocation, with the ms of that allocation's one
    * timed call, from one [[allocations]] step.
    */
  def welfare(spark: SparkSession, g: SocialGraph, cells: Seq[(String, Configs.Config, Array[Int])],
              runs: Int): Seq[(Welfare.Estimate, Long)] =
    allocations(spark, g, cells)((cfg, alloc) => Welfare.estimate(spark, g, alloc, cfg.model, runs, seed = 218))
      .map { case (est, ms) => (est, ms.median) }

  /** A figure's own gates on one welfare row: its label, configuration and
    * mean welfare per algorithm.
    */
  type WelfareGate = (String, Configs.Config, Map[String, Double]) => Seq[(Boolean, String)]

  /** One welfare figure: each `(title, rows)` table's `(label, cfg, budgets)`
    * rows evaluated for every algorithm of `algos` (greedyWM first) by one
    * [[welfare]] step over all tables, and shown and gated by [[welfareTable]].
    */
  def welfareFigure(spark: SparkSession, g: SocialGraph, algos: Seq[String], runs: Int, labelHeader: String,
                    tables: Seq[(String, Seq[(String, Configs.Config, Array[Int])])],
                    extra: WelfareGate = (_, _, _) => Nil): Seq[Table] = {
    val cells = for ((_, rows) <- tables; (_, cfg, budgets) <- rows; a <- algos) yield (a, cfg, budgets)
    val w = welfare(spark, g, cells, runs).iterator.map(_._1)
    tables.map { case (title, rows) =>
      welfareTable(title, labelHeader, algos,
        rows.map { case (label, cfg, _) => (label, cfg, Seq.fill(algos.length)(w.next())) }, extra)
    }
  }

  /** A welfare table of `algos`, greedyWM first, one row per
    * `(label, cfg, estimates)`: each cell as `mean +- stderr`, each
    * baseline's with greedyWM's paired z against it on the same worlds.
    * Gates per row: greedyWM at least 0.9 of the best baseline; no baseline
    * above greedyWM by more than 3 paired standard errors (z >= -3); and
    * `extra`.
    */
  private[exp] def welfareTable(title: String, labelHeader: String, algos: Seq[String],
                                rows: Seq[(String, Configs.Config, Seq[Welfare.Estimate])], extra: WelfareGate): Table = {
    require(algos.headOption.contains(AlgoGreedyWM) && rows.forall(_._3.length == algos.length),
      "greedyWM first, one estimate per algorithm")
    def shown(e: Welfare.Estimate): String = f"${e.welfare}%.1f +- ${e.stderr}%.1f"
    val (cells, gates) = rows.map { case (label, cfg, ests) =>
      val z = ests.tail.map(ests.head.pairedZ)
      val w = algos.zip(ests.map(_.welfare)).toMap
      val (gw, best) = (w(AlgoGreedyWM), algos.tail.map(w).max)
      val row = Seq(label, shown(ests.head)) ++ ests.tail.zip(z).map { case (e, zi) => f"${shown(e)} (z $zi%.1f)" }
      val gates = Seq((gw >= 0.9 * best) -> s"$labelHeader $label: greedyWM $gw far below best baseline $best") ++
        algos.tail.zip(z).map { case (a, zi) =>
          (zi >= -3) -> f"$labelHeader $label: $a beats greedyWM by ${-zi}%.2f paired standard errors"
        } ++ extra(label, cfg, w)
      (row, gates)
    }.unzip
    Table(title, labelHeader +: algos, cells, unmet(gates.flatten))
  }

  // -------------------------------------------------------------------
  // Tables
  // -------------------------------------------------------------------

  /** One evaluation table or figure as computed: what `printTable` prints,
    * plus the paper-shape gates it failed (empty when the shape holds).
    */
  final case class Table(title: String, headers: Seq[String], rows: Seq[Seq[Any]],
                         failed: Seq[String]) {
    /** Print the table, then one line per failed gate, in one write. */
    def show(): Unit =
      write(rendered(title, headers, rows) + failed.map(f => s"paper-shape gate failed: $f$nl").mkString)
  }

  /** The messages of the gates whose condition is false. */
  def unmet(gates: Seq[(Boolean, String)]): Seq[String] = gates.collect { case (false, msg) => msg }

  def printTable(title: String, headers: Seq[String], rows: Seq[Seq[Any]]): Unit =
    write(rendered(title, headers, rows))

  private val nl = System.lineSeparator

  /** The lines `printTable` prints: a blank line, the title, the header
    * row, a rule and one line per row, each cell padded to its column.
    */
  private def rendered(title: String, headers: Seq[String], rows: Seq[Seq[Any]]): String = {
    val cells = headers +: rows.map(_.map {
      case d: Double => f"$d%.1f"
      case x => x.toString
    })
    val widths = headers.indices.map(i => cells.map(_(i).length).max)
    def fmt(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (Seq("", s"== $title ==", fmt(cells.head), widths.map("-" * _).mkString("|-", "-|-", "-|")) ++
      cells.tail.map(fmt)).map(_ + nl).mkString
  }

  /** One write to the console, flushed, so that no other output (such as
    * a test runner's log lines) lands inside it.
    */
  private def write(text: String): Unit = { print(text); Console.out.flush() }

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
