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

  /** `rr` in a store packed on `parallelism` threads, appended in pieces
    * cut at random ids, with a pack after each piece at random.
    */
  private def cutStore(rr: IndexedSeq[Array[Int]], n: Int, parallelism: Int, rng: SplittableRandom): RRStore = {
    val store = new RRStore(n, parallelism)
    val cuts = (Seq(0, rr.length) ++ Seq.fill(rng.nextInt(5))(rng.nextInt(rr.length + 1))).distinct.sorted
    cuts.zip(cuts.tail).foreach { case (a, b) =>
      store.append(rr.slice(a, b).toArray)
      if (rng.nextBoolean()) store.pack()
    }
    store
  }

  private val parallelisms = Seq(1, 2, 3, 4, 7)

  /** The store's selection and prefix coverage equal the per-pick scan's
    * and the brute-force coverage, for each pack parallelism.
    */
  private def assertStoreAgrees(rr: IndexedSeq[Array[Int]], n: Int, k: Int, forbidden: Set[Int],
                                rng: SplittableRandom): Unit = {
    val want = scanSelection(rr, k, n, forbidden)
    val seeds = Array.fill(rng.nextInt(n + 4))(rng.nextInt(n + 6) - 3)
    val wantPrefix = (1 to seeds.length).map(j => hits(rr, seeds.take(j).toSeq))
    for (p <- parallelisms) {
      val what = s"n=$n k=$k |R|=${rr.length} forbidden=$forbidden parallelism=$p"
      val got = MaxCover.nodeSelection(cutStore(rr, n, p, rng), k, forbidden)
      assert(got.seeds.toSeq == want.seeds.toSeq, what)
      assert(got.coveredAfter.toSeq == want.coveredAfter.toSeq, what)
      assert(MaxCover.prefixCoverage(cutStore(rr, n, p, rng), seeds).toSeq == wantPrefix, what)
    }
  }

  test("the store's selection and prefix coverage equal the references for any block split and pack parallelism") {
    val rng = new SplittableRandom(2027)
    (0 until 120).foreach { trial =>
      val n = 1 + rng.nextInt(30)
      val m = if (trial % 10 == 0) 0 else rng.nextInt(60)
      val rr = IndexedSeq.fill(m) {
        if (rng.nextInt(6) == 0) Array.empty[Int]
        else Array.fill(1 + rng.nextInt(math.min(n, 6)))(rng.nextInt(n)).distinct
      }
      val forbidden = trial % 3 match {
        case 0 => Set.empty[Int]
        case 1 => (0 until n).filter(_ => rng.nextInt(3) == 0).toSet + (n + rng.nextInt(5))
        case _ => (0 until n).toSet
      }
      assertStoreAgrees(rr, n, rng.nextInt(n + 6), forbidden, rng)
    }
  }

  test("packs of many sets split into blocks on the pool and agree with the references") {
    val rng = new SplittableRandom(2028)
    val n = 120
    val rr = IndexedSeq.fill(30000) {
      if (rng.nextInt(8) == 0) Array.empty[Int] else Array.fill(1 + rng.nextInt(5))(rng.nextInt(n)).distinct
    }
    // one pack of the whole collection makes min(parallelism, 30000 / 4096) blocks
    for (p <- parallelisms) {
      val store = new RRStore(n, p)
      store.append(rr.toArray)
      assert(store.blocks.length == math.min(p, 7))
    }
    assertStoreAgrees(rr, n, 40, Set.empty, rng)
    assertStoreAgrees(rr, n, n + 3, (0 until n by 5).toSet, rng)
  }

  /** `m` sets of two nodes of `[0, 50)`; set `s` in `bad` has `bad(s)` as its second node. */
  private def withBadMembers(m: Int, bad: Map[Int, Int]): Array[Array[Int]] =
    Array.tabulate(m)(s => bad.get(s).fold(Array(s % 50, (s + 1) % 50))(v => Array(s % 50, v)))

  test("a member outside [0, n) fails the pack with a message naming its set and node") {
    for (p <- parallelisms; (sid, node) <- Seq(10000 -> 50, 13001 -> -1, 29999 -> Int.MaxValue))
      withClue(s"parallelism=$p set=$sid: ") {
        val store = new RRStore(50, p)
        store.append(withBadMembers(10000, Map.empty))
        store.pack()
        store.append(withBadMembers(20000, Map(sid - 10000 -> node)))
        val e = intercept[IllegalArgumentException](MaxCover.nodeSelection(store, 3, Set.empty[Int]))
        assert(e.getMessage == s"RR set $sid holds node $node, outside [0, 50)")
        // the failed pack left the store as it was
        assert(store.size == 30000 && store.count.sum == 20000)
      }
    val e = intercept[IllegalArgumentException](MaxCover.nodeSelection(IndexedSeq(Array(0), Array(1, 7)), 1, 5))
    assert(e.getMessage == "RR set 1 holds node 7, outside [0, 5)")
  }

  test("the first failing block's exception reaches the caller, and the pool still packs") {
    // four blocks of 5,000 sets; blocks 1 and 3 fail
    val store = new RRStore(50, 4)
    store.append(withBadMembers(20000, Map(19000 -> 60, 6000 -> 70)))
    val e = intercept[IllegalArgumentException](store.pack())
    assert(e.getMessage == "RR set 6000 holds node 70, outside [0, 50)")
    val good = new RRStore(50, 4)
    good.append(withBadMembers(20000, Map.empty))
    assert(good.blocks.length == 4 && good.count.sum == 40000)
  }
}
