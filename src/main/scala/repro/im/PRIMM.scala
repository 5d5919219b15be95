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
  )

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
          maxRR: Int = Int.MaxValue): Result = {
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
      val rr = new scala.collection.mutable.ArrayBuffer[Array[Int]]()
      def generateUntil(target: Double): Unit =
        rr ++= draw(rr.length.toLong, math.ceil(math.min(target, maxRR.toDouble)).toLong - rr.length)

      val selections = new Selections(rr, bMax, n, forbidden)

      var s = 0 // 0-based index into budgets
      var i = 1
      var budgetSwitch = false
      val maxI = (math.log(n.toDouble) / math.log(2)).toInt - 1

      while (i <= maxI && s < budgets.length) {
        val k = budgets(s)
        val x = n.toDouble / math.pow(2, i)
        generateUntil(lambdaPrime(k) / x)

        // Right after a budget switch, the previous selection's k-prefix is
        // evaluated on the grown collection instead of selecting anew.
        if (!budgetSwitch) selections.select()
        val covK = selections.covered(k)
        val frac = covK.toDouble / rr.length
        if (n * frac >= (1 + epsP) * x) {
          val lb = n * frac / (1 + epsP)
          generateUntil(lambdaStar(k) / lb)
          s += 1
          budgetSwitch = true
        } else {
          i += 1
          budgetSwitch = false
        }
      }

      if (s < budgets.length) {
        // line 22-25: fall back to LB = 1 for the current (largest remaining)
        // budget; lambda* is monotone in k so later budgets are subsumed.
        generateUntil(lambdaStar(budgets(s)) / 1.0)
      }

      val fin = selections.select()
      val sigmaHat = fin.coveredAfter.map(c => n.toDouble * c / rr.length)
      Result(fin.seeds, rr.length, sigmaHat)
    }
  }

  /** The greedy selections over one growing RR collection `rr`. Greedy
    * picks do not depend on k, so one selection of `bMax` seeds per
    * collection size answers every budget: its k-prefix and covered(k) are
    * those of a selection of k seeds.
    */
  private[im] final class Selections(rr: collection.IndexedSeq[Array[Int]], bMax: Int, n: Int,
                                     forbidden: Set[Int]) {
    // The last selection, made over the first selectedAt RR sets; its
    // coveredAfter counts the first countedAt.
    private var last: MaxCover.CoverResult = null
    private var selectedAt = -1
    private var countedAt = -1

    /** The selection over the collection as it is, made anew only once it has grown. */
    def select(): MaxCover.CoverResult = {
      if (selectedAt != rr.length) {
        last = MaxCover.nodeSelection(rr, bMax, n, forbidden)
        selectedAt = rr.length
        countedAt = rr.length
      }
      last
    }

    /** RR sets of the collection as it is hit by the k-prefix of the last
      * selection, which may be older than the collection. Once the
      * collection has grown, one scan re-counts every prefix.
      */
    def covered(k: Int): Int = {
      if (countedAt != rr.length) {
        last = MaxCover.CoverResult(last.seeds, MaxCover.prefixCoverage(rr, last.seeds, n))
        countedAt = rr.length
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
