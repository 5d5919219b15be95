package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.comic.ComicBaselines.{RRCimSampler, RRSimSampler}
import repro.core.{Allocation, Configs}
import repro.epic.Welfare
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.graph.SocialGraph
import repro.im.{ICRRSampler, PRIMM, RRSampler, RRSets}

/** The benchmark's JVM entry point; `perfbench/run.py` builds and starts it.
  *
  * One run: start a Spark session on the pinned master, build the workload's
  * stand-in graph from the seed, do the workload's set-up, warm the JIT, then
  * run operations in a closed loop (one driver thread, one operation at a
  * time) for the requested seconds. Every operation's outputs are checked.
  * The last line of standard output is the JSON result.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --work-dir <dir>`
  */
object Main {

  /** The Spark master, pinned so runs on different machines use the same
    * number of task slots.
    */
  val Slots = 4
  val Master = s"local[$Slots]"

  /** The graph is built up to three times while the builds take less than
    * three seconds in all, and set-up counts the median build. The small
    * stand-ins are built three times; the Twitter one (about five seconds)
    * once, which keeps its runs short.
    */
  val MaxGraphBuilds = 3
  val GraphBuildBudgetS = 3.0

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = Workload.byName(opts.getOrElse("workload", "")).getOrElse {
      Console.err.println(s"unknown workload; expected one of ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val traced = opts("trace") == "1"
    val workDir = opts("work-dir")
    val ok = new Main(workload, seed, seconds, traced, workDir).run()
    sys.exit(if (ok) 0 else 1)
  }
}

final class Main(w: Workload, seed: Long, seconds: Double, traced: Boolean, workDir: String) {
  import Main._

  // Inputs and algorithms get independent seeds derived from the workload seed.
  private val graphSeed = RRSets.mix(seed, 1)
  private val algoSeed = RRSets.mix(seed, 2)
  private val welfareSeed = RRSets.mix(seed, 3)

  private val problems = mutable.ArrayBuffer.empty[String]
  private val firstDigest = mutable.Map.empty[String, Long]

  private def log(msg: String): Unit = Console.err.println(s"perfbench: $msg")

  private def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Record an operation's check failures and compare its digests with the
    * first time each output was seen in this run.
    */
  private def account(what: String, r: OpResult): Boolean = {
    val bad = r.problems ++ r.digests.toSeq.collect {
      case (key, d) if firstDigest.getOrElseUpdate(key, d) != d => s"$key differs from its first value in this run"
    }
    bad.foreach(p => problems += s"$what: $p")
    bad.isEmpty
  }

  def run(): Boolean = {
    val (spark, sessionS) = timed {
      SparkSession.builder
        .master(Master)
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", s"$workDir/spark-local")
        .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
        .getOrCreate()
    }
    try measure(spark, sessionS)
    finally spark.stop()
  }

  private def measure(spark: SparkSession, sessionS: Double): Boolean = {
    val tracer = new Tracer(spark.sparkContext, traced)

    var g: SocialGraph = null
    val buildTimes = mutable.ArrayBuffer.empty[Double]
    while (buildTimes.isEmpty || (buildTimes.length < MaxGraphBuilds && buildTimes.sum < GraphBuildBudgetS)) {
      g = null
      val (graph, s) = timed(tracer.span("graph.build")(w.graph(graphSeed)))
      g = graph
      buildTimes += s
    }
    val ctx = new Ctx(spark, tracer, g, algoSeed, welfareSeed)
    val (prep, prepareS) = timed(tracer.span("prepare")(w.prepare(ctx)))
    account("set-up", prep)
    val setupS = sessionS + Stats.median(buildTimes.toSeq) + prepareS
    log(f"set-up: session $sessionS%.2f s, graph builds ${buildTimes.map(t => f"$t%.2f").mkString(" ")} s, " +
      f"prepare $prepareS%.2f s")

    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

    val (warm, warmS) = timed(tracer.span("warmup")(w.warmUp(ctx)))
    account("warm-up", warm)
    log(f"warm-up $warmS%.2f s; JVM up ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")

    val cells = mutable.ArrayBuffer.empty[(Double, OpResult)]
    var failed = 0
    val loop0 = System.nanoTime()
    while (cells.isEmpty || System.nanoTime() - loop0 < seconds * 1e9) {
      // Each operation starts from a collected heap, so garbage left by the
      // one before does not land in its time.
      System.gc()
      val (r, s) = timed(tracer.span("op")(w.op(ctx)))
      cells += s -> r
      if (!account(s"op ${cells.length}", r)) failed += 1
    }
    val cellTimes = cells.map(_._1).toSeq
    val (tailP, tailS) = Stats.tail(cellTimes)

    // Figures of this workload's own algorithms, from the operations or,
    // for calls made only in set-up, from there.
    val phaseNames = (prep.phases.keys ++ cells.flatMap(_._2.phases.keys)).toSeq.distinct.sorted
    val figures: Map[String, Double] = phaseNames.map { name =>
      val inOps = cells.flatMap(_._2.phases.get(name)).toSeq
      name -> (if (inOps.nonEmpty) Stats.median(inOps) else prep.phases(name))
    }.toMap ++ cells.last._2.values
    log(s"workload=${w.name} seed=$seed master=$Master cores=${Runtime.getRuntime.availableProcessors} " +
      s"ops=${cells.length} cell_tail=p$tailP traced=$traced")
    log(s"figures ${Json.value(figures)}")

    val metrics: Seq[(String, Double, String)] =
      if (!traced) Seq(
        ("setup_s", setupS, "s"),
        ("cell_s", Stats.median(cellTimes), "s"),
        ("cell_tail_s", tailS, "s"),
        ("heap_live_mb", heapMb, "MB"),
      )
      else layerMetrics(spark, tracer, g, buildTimes.toSeq, cellTimes, cells.last._2.values)

    if (traced) tracer.write(s"$workDir/trace-${w.name}-$seed.jsonl")
    log(f"JVM up ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
    problems.foreach(p => log(s"CHECK FAILED $p"))
    val correct = problems.isEmpty
    println(Json.obj(
      "correct" -> correct,
      "attempted" -> cells.length,
      "failed" -> failed,
      "metrics" -> Json.Raw(Json.obj(metrics.map { case (n, v, u) => n -> Json.Raw(Json.obj("value" -> v, "unit" -> u)) }: _*)),
    ))
    correct
  }

  /** The traced run's per-layer metrics: Spark work attributed to the
    * operations' spans, counting-sampler mirrors of the workload's PRIMM
    * calls, and single-threaded probes of each layer on this graph.
    */
  private def layerMetrics(spark: SparkSession, tracer: Tracer, g: SocialGraph,
                           buildTimes: Seq[Double], cellTimes: Seq[Double],
                           values: Map[String, Double]): Seq[(String, Double, String)] = {
    val out = mutable.ArrayBuffer.empty[(String, Double, String)]
    def put(name: String, v: Double, unit: String): Unit = out += ((name, v, unit))

    put("graph.build_s", Stats.median(buildTimes), "s")
    put("graph.bytes", 4.0 * (g.fwdOff.length + g.fwdDst.length + g.revOff.length + g.revSrc.length) +
      8.0 * (g.fwdProb.length + g.revProb.length), "bytes-computed")

    // Spark work per operation, medians over the operations.
    val ops = tracer.named("op")
    val perOp = ops.map(s => (s, tracer.work(s)))
    def med(f: ((Span, SparkWork)) => Double): Double = Stats.median(perOp.map(f))
    put("spark.jobs", med(_._2.jobs.toDouble), "count")
    put("spark.tasks", med(_._2.tasks.toDouble), "count")
    put("spark.job_wall_s", med(_._2.jobWallMs / 1e3), "s")
    put("spark.task_busy_s", med(_._2.busyMs / 1e3), "s")
    put("spark.task_deser_s", med(_._2.deserMs / 1e3), "s")
    put("spark.result_bytes", med(_._2.resultBytes.toDouble), "bytes")
    put("spark.overhead_s", med(p => (p._2.jobWallMs - p._2.busyMs.toDouble / Slots) / 1e3), "s")
    put("spark.driver_s", med(p => p._1.seconds - p._2.jobWallMs / 1e3), "s")
    put("trace.cell_s", Stats.median(cellTimes), "s")

    // greedyWM's PRIMM call, repeated with a counting sampler.
    val distinctDesc = w.budgets.distinct.sorted(Ordering[Int].reverse).toSeq
    val bMax = distinctDesc.head
    val primm = tracer.span("probe.primm") {
      PRIMM.run(spark, g, distinctDesc, 0.5, 1.0, algoSeed, Some(new CountingSampler(new ICRRSampler(g), s"ic-$seed")))
    }
    val ic = SampleCounts(s"ic-$seed")
    val gwAlloc = Allocation.fromItemSeeds(w.budgets.map(b => primm.seeds.take(b)).toSeq)
    val gwDigest = Checks.digest(gwAlloc).toLong
    val opDigest = firstDigest.get(s"alloc.$AlgoGreedyWM").orElse(firstDigest.get(s"alloc.$AlgoGreedyWM.c7"))
    if (!opDigest.contains(gwDigest)) problems += "counting-sampler PRIMM does not reproduce greedyWM's allocation"
    if (ic.attempts.sum != primm.rrCount)
      problems += s"counted ${ic.attempts.sum} RR sets, PRIMM reports ${primm.rrCount}"
    problems ++= Checks.sigmaHat("greedyWM PRIMM", primm.sigmaHat)
    put("rrsets.count", ic.attempts.sum.toDouble, "count")
    put("rrsets.members", ic.members.sum.toDouble, "count")
    put("rrsets.avg_size", ic.members.sum.toDouble / ic.attempts.sum, "nodes")
    put("rrsets.sample_us", ic.usPerSample, "us")
    put("rrsets.sample_us_1t", Probes.icSampleUs(g, algoSeed), "us")
    put("primm.rr_count", primm.rrCount.toDouble, "count")
    put("primm.sampling_jobs", tracer.work(tracer.named("probe.primm").last).jobs.toDouble, "count")
    put("primm.sigma_hat", primm.sigmaHat(bMax - 1), "nodes")

    // MaxCover on a collection of PRIMM's final size: the same sample ids.
    val rr = tracer.span("probe.generate") {
      RRSets.generate(spark, new ICRRSampler(g), primm.rrCount.toLong, algoSeed, 0L)
    }
    val (selectS, picked) = Probes.nodeSelection(rr.toIndexedSeq, bMax, g.n)
    if (!picked.sameElements(primm.seeds)) problems += "nodeSelection over PRIMM's collection picks other seeds"
    put("maxcover.select_s", selectS, "s")

    // Welfare: from the operations where they estimate it, else one
    // 40-world estimate of greedyWM's allocation under the workload's config.
    w match {
      case Fig5DoubanWelfare =>
        val perOpBusy = ops.map { op =>
          tracer.named("welfare.estimate").filter(s => s.startNs >= op.startNs && s.endNs <= op.endNs)
            .map(tracer.work(_).busyMs).sum / 1e3
        }
        val worlds = Fig5DoubanWelfare.configNos.length * multiItemAlgos.length * Fig5DoubanWelfare.worlds
        put("welfare.worlds", worlds.toDouble, "count")
        put("welfare.task_busy_s", Stats.median(perOpBusy), "s")
        put("welfare.world_ms", Stats.median(perOpBusy) * 1e3 / worlds, "ms")
        put("welfare.stderr", values("welfare_greedywm_stderr"), "welfare")
        put("welfare.adoptions", values("welfare_greedywm_adoptions"), "count")
      case _ =>
        val worlds = 40
        val est = tracer.span("probe.welfare") {
          Welfare.estimate(spark, g, gwAlloc, w.config.model, worlds, seed = welfareSeed)
        }
        val busy = tracer.work(tracer.named("probe.welfare").last).busyMs / 1e3
        put("welfare.worlds", worlds.toDouble, "count")
        put("welfare.task_busy_s", busy, "s")
        put("welfare.world_ms", busy * 1e3 / worlds, "ms")
        put("welfare.stderr", Stats.stderr(est.perRunWelfare), "welfare")
        put("welfare.adoptions", est.adoptions, "count")
    }
    val epicAlloc = if (w eq Fig5DoubanWelfare) Fig5DoubanWelfare.allocation(7, AlgoGreedyWM) else gwAlloc
    val k = w.budgets.length
    put("epic.diffuse_ms_1t.c7", Probes.diffuseMs(g, epicAlloc, Configs.config7(k).model, welfareSeed), "ms")
    put("epic.diffuse_ms_1t.c10", Probes.diffuseMs(g, epicAlloc, Configs.config10(k).model, welfareSeed), "ms")
    put("items.adopt_ns.c7", Probes.adoptNs(Configs.config7(10).model, seed), "ns")
    put("items.adopt_ns.c10", Probes.adoptNs(Configs.config10(10).model, seed), "ns")

    // Com-IC samplers: counted inside RR-SIM+ and RR-CIM's second IMM call
    // where the workload runs them, else drawn serially on this graph.
    val comicKey = s"comic-$seed"
    w match {
      case Fig4FlixsterComic => comicMirror(spark, tracer, g, comicKey)
      case _ => Probes.drawSerially(new RRSimSampler(g, primm.seeds.take(50), Configs.config1.gap), algoSeed, comicKey)
    }
    val comic = SampleCounts(comicKey)
    put("comic.rr_attempts", comic.attempts.sum.toDouble, "count")
    put("comic.rr_nonempty_ratio", comic.nonEmpty.sum.toDouble / comic.attempts.sum, "ratio")
    put("comic.sample_us", comic.usPerSample, "us")
    out.toSeq
  }

  /** RR-SIM+ and RR-CIM as `ComicBaselines` runs them, with the second IMM
    * call's sampler counted under `key`; the allocations must match the
    * operations'.
    */
  private def comicMirror(spark: SparkSession, tracer: Tracer, g: SocialGraph, key: String): Unit = {
    val Array(bA, bB) = w.budgets
    val gap = w.config.gap
    def imm(k: Int): Array[Int] = PRIMM.imm(spark, g, k, 0.5, 1.0, algoSeed).seeds
    def counted(what: String, sampler: RRSampler, k: Int): PRIMM.Result = tracer.span(s"probe.$what") {
      PRIMM.imm(spark, g, k, 0.5, 1.0, algoSeed + 1, Some(new CountingSampler(sampler, key)),
        maxRR = Experiments.comicMaxRR)
    }
    val seedsB = imm(bB)
    val sim = counted("rrsim", new RRSimSampler(g, seedsB, gap), bA)
    val seedsA = imm(bA)
    val cim = counted("rrcim", new RRCimSampler(g, seedsA, gap), bB)
    val drawn = SampleCounts(key).attempts.sum
    if (drawn != sim.rrCount + cim.rrCount)
      problems += s"counted $drawn Com-IC RR sets, IMM reports ${sim.rrCount + cim.rrCount}"
    for ((algo, alloc) <- Seq(AlgoRRSimPlus -> Seq(sim.seeds, seedsB), AlgoRRCim -> Seq(seedsA, cim.seeds))) {
      val d = Checks.digest(Allocation.fromItemSeeds(alloc)).toLong
      if (!firstDigest.get(s"alloc.$algo").contains(d))
        problems += s"counting-sampler $algo does not reproduce the operation's allocation"
    }
  }
}
