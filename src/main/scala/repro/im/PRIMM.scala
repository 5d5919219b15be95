package repro.im

import org.apache.spark.sql.SparkSession

import repro.exec.SeededBatch
import repro.graph.SocialGraph

/** PRIMM — PRefix-preserving IMM (Algorithm 3) — and its single-budget
  * special case IMM [Tang et al. 2015].
  *
  * Given a budget vector sorted non-increasingly, PRIMM grows one shared
  * RR-set collection so that for EVERY budget `k` in the vector,
  * `|R| >= lambda*_k / OPT_k` w.h.p.; the final greedy `NodeSelection`
  * ordering is then simultaneously near-optimal on every prefix
  * (Definition 1). Sampling is generic over [[RRSampler]] so the Com-IC
  * baselines reuse the same engine.
  */
object PRIMM {

  /** `ln C(n,k)` computed stably as a sum of logs. */
  def logBinom(n: Int, k: Int): Double = {
    require(k >= 0 && k <= n, s"logBinom($n,$k)")
    var s = 0.0
    var j = 1
    while (j <= k) { s += math.log((n - k + j).toDouble / j); j += 1 }
    s
  }

  final case class Result(
      seeds: Array[Int],
      rrCount: Int,
      /** estimated spread of each prefix: `sigmaHat(j)` for `j+1` seeds */
      sigmaHat: Array[Double],
      /** what each round drew and what it cost, in order; see [[Round]] */
      rounds: Seq[Round],
  )

  /** One round of PRIMM's sampling loop: round `i`, its `x = n / 2^i`, the
    * budget `k` it tests, `k`'s sample-size numerators `lambdaPrime` and
    * `lambdaStar`, the lower bound `lb` on `OPT_k` when the round sets one,
    * and the RR sets held after it. A round grows the collection to
    * `lambdaPrime / x` sets, and to `lambdaStar / lb` once it sets `lb`
    * (each capped at `maxRR`). The last row is the closing step, at the `i`
    * where the loop stopped: it grows the collection to `lambdaStar / 1`
    * for the budget `k` left when one is (`lb = Some(1)`), else draws
    * nothing (`k` the smallest budget, `lb = None`), and makes the final
    * selection.
    *
    * `drawMs`, `packMs` and `selectMs` are the wall times of the round's
    * draws, of packing them into the RR store, and of its selection or
    * coverage count.
    */
  final case class Round(i: Int, x: Double, k: Int, lambdaPrime: Double, lambdaStar: Double,
                         lb: Option[Double], rrCount: Int, drawMs: Double, packMs: Double, selectMs: Double)

  /** Run PRIMM.
    *
    * @param budgets  item budgets, MUST be sorted non-increasingly
    * @param eps      approximation slack (paper default 0.5)
    * @param ell      confidence exponent (paper default 1)
    * @param forbidden nodes excluded from selection (baseline support);
    *                  at least `budgets.head` nodes must remain selectable
    */
  def run(spark: SparkSession, g: SocialGraph, budgets: Seq[Int],
          eps: Double = 0.5, ell: Double = 1.0, seed: Long = 7,
          sampler: Option[RRSampler] = None,
          forbidden: Set[Int] = Set.empty,
          maxRR: Int = Int.MaxValue): Result =
    run(spark, g, budgets, eps, ell, seed, sampler, forbidden, maxRR, SeededBatch.parallelism(spark))

  /** [[run]] with its RR store packed on `packParallelism` threads, which
    * changes no output.
    */
  private[im] def run(spark: SparkSession, g: SocialGraph, budgets: Seq[Int], eps: Double, ell: Double,
                      seed: Long, sampler: Option[RRSampler], forbidden: Set[Int], maxRR: Int,
                      packParallelism: Int): Result = {
    require(budgets.nonEmpty && budgets.forall(_ >= 1), s"need budgets each at least 1, got ${budgets.mkString(",")}")
    require(budgets.zip(budgets.tail).forall { case (a, b) => a >= b },
      "budgets must be sorted non-increasingly")
    require(maxRR >= 1, s"maxRR must allow at least one RR set, got $maxRR")
    val n = g.n
    require(n >= 2, s"PRIMM needs at least 2 nodes, got $n: its sample-size bounds divide by ln n")
    val bMax = budgets.head
    val selectable = n - forbidden.count(u => u >= 0 && u < n)
    require(bMax <= selectable,
      s"budget $bMax exceeds the $selectable selectable nodes ($n nodes, ${n - selectable} forbidden)")

    val lnN = math.log(n.toDouble)
    // line 2: ell <- ell + log 2 / log n ; line 3: ell' = log_n(n^ell * |b|)
    val ell2 = ell + math.log(2) / lnN
    val ellP = ell2 + math.log(budgets.length.toDouble) / lnN
    val epsP = math.sqrt(2) * eps

    val alpha = math.sqrt(ellP * lnN + math.log(2))
    def beta(k: Int): Double =
      math.sqrt((1 - 1 / math.E) * (logBinom(n, k) + ellP * lnN + math.log(2)))
    def lambdaStar(k: Int): Double =
      2 * n * math.pow((1 - 1 / math.E) * alpha + beta(k), 2) / (eps * eps)
    def lambdaPrime(k: Int): Double =
      (2 + 2 * epsP / 3) * (logBinom(n, k) + ellP * lnN + math.log(math.log(n.toDouble) / math.log(2))) * n / (epsP * epsP)

    SeededBatch.run(spark, sampler.getOrElse(new ICRRSampler(g)), seed)(_.sample(_)) { draw =>
      val store = new RRStore(n, packParallelism)
      val selections = new Selections(store, bMax, forbidden)
      val rounds = Vector.newBuilder[Round]
      var clock = System.nanoTime()
      def lap(): Double = { val t = clock; clock = System.nanoTime(); (clock - t) / 1e6 }
      def generateUntil(target: Double): Unit =
        store.append(draw(store.size.toLong, math.ceil(math.min(target, maxRR.toDouble)).toLong - store.size))

      var s = 0 // 0-based index into budgets
      var i = 1
      var budgetSwitch = false
      val maxI = (math.log(n.toDouble) / math.log(2)).toInt - 1

      while (i <= maxI && s < budgets.length) {
        val k = budgets(s)
        val x = n.toDouble / math.pow(2, i)
        generateUntil(lambdaPrime(k) / x)
        var drawMs = lap()
        store.pack()
        val packMs = lap()

        // Right after a budget switch, the previous selection's k-prefix is
        // evaluated on the grown collection instead of selecting anew.
        if (!budgetSwitch) selections.select()
        val covK = selections.covered(k)
        val selectMs = lap()
        val frac = covK.toDouble / store.size
        val lb = if (n * frac >= (1 + epsP) * x) Some(n * frac / (1 + epsP)) else None
        lb.foreach { bound => generateUntil(lambdaStar(k) / bound); drawMs += lap() }
        rounds += Round(i, x, k, lambdaPrime(k), lambdaStar(k), lb, store.size, drawMs, packMs, selectMs)
        if (lb.isDefined) s += 1 else i += 1
        budgetSwitch = lb.isDefined
      }

      // line 22-25: fall back to LB = 1 for the current (largest remaining)
      // budget; lambda* is monotone in k so later budgets are subsumed.
      val (k, lb) = if (s < budgets.length) (budgets(s), Some(1.0)) else (budgets.last, None)
      lb.foreach(bound => generateUntil(lambdaStar(k) / bound))
      val drawMs = lap()
      store.pack()
      val packMs = lap()
      val fin = selections.select()
      val selectMs = lap()
      rounds += Round(i, n.toDouble / math.pow(2, i), k, lambdaPrime(k), lambdaStar(k), lb, store.size,
        drawMs, packMs, selectMs)
      val sigmaHat = fin.coveredAfter.map(c => n.toDouble * c / store.size)
      Result(fin.seeds, store.size, sigmaHat, rounds.result())
    }
  }

  /** The greedy selections over one growing RR store. Greedy picks do not
    * depend on k, so one selection of `bMax` seeds per store size answers
    * every budget: its k-prefix and covered(k) are those of a selection of
    * k seeds.
    */
  private[im] final class Selections(store: RRStore, bMax: Int, forbidden: Set[Int]) {
    // The last selection, made over the first selectedAt RR sets; its
    // coveredAfter counts the first countedAt.
    private var last: MaxCover.CoverResult = null
    private var selectedAt = -1
    private var countedAt = -1

    /** The selection over the store as it is, made anew only once it has grown. */
    def select(): MaxCover.CoverResult = {
      if (selectedAt != store.size) {
        last = MaxCover.nodeSelection(store, bMax, forbidden)
        selectedAt = store.size
        countedAt = store.size
      }
      last
    }

    /** RR sets of the store as it is hit by the k-prefix of the last
      * selection, which may be older than the store. Once the store has
      * grown, one scan re-counts every prefix.
      */
    def covered(k: Int): Int = {
      if (countedAt != store.size) {
        last = MaxCover.CoverResult(last.seeds, MaxCover.prefixCoverage(store, last.seeds))
        countedAt = store.size
      }
      last.covered(k)
    }
  }

  /** Plain IMM: PRIMM with a single budget. */
  def imm(spark: SparkSession, g: SocialGraph, k: Int,
          eps: Double = 0.5, ell: Double = 1.0, seed: Long = 7,
          sampler: Option[RRSampler] = None,
          forbidden: Set[Int] = Set.empty,
          maxRR: Int = Int.MaxValue): Result =
    run(spark, g, Seq(k), eps, ell, seed, sampler, forbidden, maxRR)
}
