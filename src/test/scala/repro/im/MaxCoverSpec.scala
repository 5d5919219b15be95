package repro.im

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.GraphGen

class MaxCoverSpec extends AnyFunSuite {

  /** Number of RR sets in `rr` that contain a node of `seeds`. */
  private def hits(rr: IndexedSeq[Array[Int]], seeds: Seq[Int]): Int = rr.count(_.exists(seeds.contains))

  test("picks the node covering the most RR sets first") {
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(1), Array(3))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 4)
    assert(res.seeds.head == 1)
    assert(res.covered(1) == 3)
    assert(res.seeds(1) == 3) // node 3 covers the remaining set
    assert(res.covered(2) == 4)
  }

  test("deterministic smallest-id tie-break") {
    val rr = IndexedSeq(Array(5), Array(2), Array(7))
    val res = MaxCover.nodeSelection(rr, k = 3, n = 10)
    assert(res.seeds.toSeq == Seq(2, 5, 7))
  }

  test("per-prefix coverage is non-decreasing") {
    val rr = IndexedSeq(Array(0, 1, 2), Array(2, 3), Array(0), Array(4), Array(1, 4))
    val res = MaxCover.nodeSelection(rr, k = 5, n = 6)
    val cov = res.coveredAfter
    assert(cov.zip(cov.tail).forall { case (a, b) => b >= a })
    assert(cov.last == 5)
  }

  test("forbidden nodes are never selected") {
    val rr = IndexedSeq(Array(0, 1), Array(0), Array(0, 2))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 3, forbidden = Set(0))
    assert(!res.seeds.contains(0))
  }

  test("coverage counts sets hit by the seed set") {
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(3), Array.empty[Int])
    val n = 2000
    def prefix(seeds: Int*): Seq[Int] = MaxCover.prefixCoverage(rr, seeds.toArray, n).toSeq
    assert(prefix(1) == Seq(2))
    assert(prefix(1, 3) == Seq(2, 3))
    assert(prefix().isEmpty)
    assert(prefix(3, 1000) == Seq(1, 1)) // ids no set contains
    assert(prefix(-1, 3, -7) == Seq(0, 1, 1)) // negative ids hit nothing
    assert(prefix(3, n, n + 5) == Seq(1, 1, 1)) // as do ids from n on
  }

  test("prefix coverage of every prefix equals the coverage of that prefix on random collections") {
    val rng = new SplittableRandom(41)
    (0 until 200).foreach { trial =>
      val n = 1 + rng.nextInt(40)
      val m = if (trial % 10 == 0) 0 else rng.nextInt(80)
      val rr = IndexedSeq.fill(m) {
        if (rng.nextInt(6) == 0) Array.empty[Int]
        else Array.fill(1 + rng.nextInt(math.min(n, 8)))(rng.nextInt(n)).distinct
      }
      // repeated seeds and ids outside [0, n) included
      val seeds = Array.fill(rng.nextInt(n + 4))(rng.nextInt(n + 6) - 3)
      val prefix = MaxCover.prefixCoverage(rr, seeds, n)
      assert(prefix.length == seeds.length)
      (1 to seeds.length).foreach { k =>
        assert(prefix(k - 1) == hits(rr, seeds.take(k).toSeq), s"trial $trial, k=$k")
      }
    }
  }

  test("prefix coverage of a greedy selection equals its per-prefix coverage") {
    val g = GraphGen.powerLawDirected("mc", 1500, 12000, seed = 3)
    val sampler = new ICRRSampler(g)
    val rr = (0 until 4000).map(i => sampler.sample(new SplittableRandom(RRSets.mix(5, i.toLong))))
    val res = MaxCover.nodeSelection(rr, 300, g.n)
    assert(MaxCover.prefixCoverage(rr, res.seeds, g.n).toSeq == res.coveredAfter.toSeq)
  }

  test("empty RR collection still returns k seeds with zero coverage") {
    val res = MaxCover.nodeSelection(IndexedSeq.empty, k = 3, n = 5)
    assert(res.seeds.length == 3)
    assert(res.coveredAfter.forall(_ == 0))
  }

  test("empty RR sets in the collection are never covered") {
    val rr = IndexedSeq(Array.empty[Int], Array(1))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 3)
    assert(res.covered(2) == 1)
  }

  test("k greater than n is clamped") {
    val rr = IndexedSeq(Array(0), Array(1))
    val res = MaxCover.nodeSelection(rr, k = 10, n = 2)
    assert(res.seeds.length == 2)
  }

  test("greedy coverage is optimal on a small instance") {
    // brute force over all 2-subsets
    val rr = IndexedSeq(Array(0, 1), Array(1, 2), Array(2, 3), Array(3, 0), Array(1, 3))
    val res = MaxCover.nodeSelection(rr, k = 2, n = 4)
    val best = (0 until 4).combinations(2).map(hits(rr, _)).max
    assert(res.covered(2) == best)
  }

  test("greedy achieves at least (1-1/e) of optimal coverage on random instances") {
    val rng = new java.util.SplittableRandom(17)
    (0 until 20).foreach { _ =>
      val n = 12
      val rr = IndexedSeq.fill(30)(Array.fill(1 + rng.nextInt(3))(rng.nextInt(n)).distinct)
      val k = 3
      val res = MaxCover.nodeSelection(rr, k, n)
      val best = (0 until n).combinations(k).map(hits(rr, _)).max
      assert(res.covered(k) >= math.ceil((1 - 1.0 / math.E) * best) - 1e-9)
    }
  }

  /** The O(n)-per-pick greedy `nodeSelection` used to be: each pick scans
    * every node for the largest gain, ties to the smaller id. The heap-based
    * version must reproduce it exactly.
    */
  private def scanSelection(rr: IndexedSeq[Array[Int]], k: Int, n: Int,
                            forbidden: Set[Int]): MaxCover.CoverResult = {
    val gain = new Array[Int](n)
    rr.foreach(_.foreach(u => gain(u) += 1))
    val containing = Array.tabulate(n)(u => rr.indices.filter(s => rr(s).contains(u)))
    forbidden.foreach(u => if (u < n) gain(u) = -1)
    val covered = new Array[Boolean](rr.length)
    val seeds = scala.collection.mutable.ArrayBuffer.empty[Int]
    val coveredAfter = scala.collection.mutable.ArrayBuffer.empty[Int]
    var coveredCount = 0
    var pick = 0
    while (pick < k && pick < n) {
      var best = -1; var bestGain = -1
      (0 until n).foreach(u => if (gain(u) > bestGain) { bestGain = gain(u); best = u })
      if (best < 0) pick = k
      else {
        seeds += best
        for (sid <- containing(best) if !covered(sid)) {
          covered(sid) = true
          coveredCount += 1
          rr(sid).foreach(w => if (gain(w) > 0) gain(w) -= 1)
        }
        gain(best) = -1
        coveredAfter += coveredCount
        pick += 1
      }
    }
    MaxCover.CoverResult(seeds.toArray, coveredAfter.toArray)
  }

  private def assertSameSelection(rr: IndexedSeq[Array[Int]], k: Int, n: Int, forbidden: Set[Int]): Unit = {
    val got = MaxCover.nodeSelection(rr, k, n, forbidden)
    val want = scanSelection(rr, k, n, forbidden)
    val what = s"n=$n k=$k |R|=${rr.length} forbidden=$forbidden"
    assert(got.seeds.toSeq == want.seeds.toSeq, what)
    assert(got.coveredAfter.toSeq == want.coveredAfter.toSeq, what)
  }

  test("node selection equals the per-pick scan on random collections") {
    val rng = new SplittableRandom(2024)
    (0 until 240).foreach { trial =>
      val n = 1 + rng.nextInt(30)
      // every tenth collection is empty; members come from few nodes, so
      // gains tie often, and about one set in six is empty
      val m = if (trial % 10 == 0) 0 else rng.nextInt(60)
      val rr = IndexedSeq.fill(m) {
        if (rng.nextInt(6) == 0) Array.empty[Int]
        else Array.fill(1 + rng.nextInt(math.min(n, 6)))(rng.nextInt(n)).distinct
      }
      val forbidden = trial % 4 match {
        case 0 => Set.empty[Int]
        case 1 => (0 until n).filter(_ => rng.nextInt(3) == 0).toSet
        case 2 => (0 until n).toSet // all forbidden: nothing selectable
        case _ => (0 until n).filter(_ => rng.nextInt(4) == 0).toSet + (n + rng.nextInt(5))
      }
      val k = rng.nextInt(n + 6) // k = 0 and k > n included
      assertSameSelection(rr, k, n, forbidden)
    }
  }

  test("node selection equals the per-pick scan on IC RR sets") {
    val g = GraphGen.powerLawDirected("mc", 1500, 12000, seed = 3)
    val sampler = new ICRRSampler(g)
    val rr = (0 until 4000).map(i => sampler.sample(new SplittableRandom(RRSets.mix(5, i.toLong))))
    assertSameSelection(rr, 300, g.n, Set.empty)
    assertSameSelection(rr, 300, g.n, (0 until g.n by 7).toSet)
  }
}
