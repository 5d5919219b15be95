package repro.comic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{ReverseBfs, TestInputs}
import repro.Threads.{onFourThreads, onNewThread}
import repro.graph.{GraphGen, SocialGraph}
import repro.im.RRSets.hash01

/** The Com-IC samplers' reverse search: the walks of `reverseAdoptingSet`
  * and the adoption queries of `adoptsInSpread`, each in its own per-thread
  * scratch. These tests check walks against the plain reverse BFS, queries
  * against walks, and that the scratch never leaks state between calls:
  * across threads, across graphs of different sizes, after a predicate
  * throws, when a search is re-entered and when a query runs inside a
  * walk's predicate.
  */
class ComicSearchSpec extends AnyFunSuite {

  private lazy val big = GraphGen.powerLawDirected("search-big", 2000, 16000, seed = 5)
  private lazy val small = TestInputs.uniformDirected("search-small", 60, 400, seed = 7)

  /** 400 nodes and 2,400 arcs of p = 0.35, so many walks outgrow the
    * search's initial 64-slot queue.
    */
  private lazy val dense = {
    val rng = new SplittableRandom(31)
    val (src, dst) = Array.fill(2400)((rng.nextInt(400), rng.nextInt(400))).unzip
    SocialGraph.fromArcs("search-dense", 400, src, dst, Some(Array.fill(2400)(0.35)), undirected = false)
  }

  private def adopts(w: Long)(u: Int): Boolean = hash01(w, u.toLong, 5) < 0.8

  /** Walk `i` of `g`: the adopting set of node `i % g.n` in world `i`. */
  private def walk(g: SocialGraph, i: Int): Seq[Int] =
    ComicBaselines.reverseAdoptingSet(g, i.toLong, i % g.n, adopts(i.toLong)).toSeq

  private def seeds(g: SocialGraph): Array[Boolean] = Array.tabulate(g.n)(_ % 40 == 0)

  /** Query `i` of `g`: does node `i % g.n` adopt in world `i` an item seeded
    * at the multiples of 40, with every node passing at q = 0.9?
    */
  private def query(g: SocialGraph, i: Int): Boolean =
    ComicBaselines.adoptsInSpread(g, i.toLong, seeds(g), _ => 0.9, 13)(i % g.n)

  /** Ids `i` whose walk on `g` through every node visits at least `size` nodes. */
  private def walksOf(g: SocialGraph, size: Int): Seq[Int] =
    (0 until 1000).filter(i => ComicBaselines.reverseAdoptingSet(g, i.toLong, i % g.n, _ => true).length >= size)

  test("walks equal the reference BFS over live edges through adopting nodes") {
    for (g <- Seq(big, dense)) {
      val walks = (0 until 2000).map { i =>
        val (w, root) = (i.toLong, i % g.n)
        val expected =
          if (!adopts(w)(root)) Seq.empty
          else {
            val live = ComicReference.liveArcs(g, w)
            ReverseBfs(g, root)((e, v) => live(e, v) && adopts(w)(g.revSrc(e))).toSeq
          }
        assert(walk(g, i) == expected, s"${g.name}: walk $i")
        expected
      }
      assert(walks.count(_.length > 5) > 100)
      if (g eq dense) assert(walks.count(_.length > 64) > 100)
    }
  }

  test("a query answers whether the walk through passing nodes meets a seed") {
    for (g <- Seq(big, dense)) {
      val answers = (0 until 2000).map { i =>
        val w = i.toLong
        val meets = ComicBaselines.reverseAdoptingSet(g, w, i % g.n, hash01(w, _, 13) < 0.9).exists(seeds(g))
        assert(query(g, i) == meets, s"${g.name}: query $i")
        meets
      }
      assert(answers.contains(true) && answers.contains(false))
    }
  }

  /** Runs `f` on ids 0 until 2000 over the three graphs, serially and on four
    * threads; each thread starts on the small graph, so its scratches grow twice.
    */
  private def concurrentEqualsSerial[A](f: (SocialGraph, Int) => A): Unit = {
    val ids = 0 until 2000
    def all(i: Int) = Seq(small, dense, big).map(f(_, i))
    val serial = onNewThread(ids.map(all))
    assert(onFourThreads(ids)(all) == serial)
  }

  test("concurrent walks on four threads equal serial walks") {
    concurrentEqualsSerial(walk)
  }

  test("concurrent queries on four threads equal serial queries") {
    concurrentEqualsSerial(query)
  }

  test("interleaving graph sizes on one thread does not change results") {
    val ids = 0 until 500
    def both(g: SocialGraph, i: Int) = (walk(g, i), query(g, i))
    val smallAlone = onNewThread(ids.map(both(small, _)))
    val bigAlone = onNewThread(ids.map(both(big, _)))
    // Small first, so the scratches have to grow for the big graph.
    val interleaved = onNewThread(ids.map(i => (both(small, i), both(big, i))))
    assert(interleaved.map(_._1) == smallAlone)
    assert(interleaved.map(_._2) == bigAlone)
  }

  /** Walks and queries on the small and dense graphs: what a search left
    * behind in either scratch would change some of them.
    */
  private def cleanRuns = {
    val ids = 0 until 200
    (ids.map(walk(small, _)), ids.map(walk(dense, _)), ids.map(query(small, _)), ids.map(query(dense, _)))
  }

  /** Runs `search(i, predicateCall)` for 100 dense-graph ids whose walk
    * through every node visits at least three nodes, with a predicate call
    * that throws on its third use, then checks that every walk and query
    * still returns what it did on a fresh thread. The root is tested before
    * the search starts; each of these searches adds a tail before the third
    * call throws.
    */
  private def throwingLeavesClean(search: (Int, () => Unit) => Unit): Unit = {
    val expected = onNewThread(cleanRuns)
    val roots = walksOf(dense, 3).take(100)
    assert(roots.length == 100)
    val after = onNewThread {
      roots.foreach { i =>
        var calls = 0
        def count(): Unit = { calls += 1; if (calls == 3) throw new IllegalStateException("boom") }
        intercept[IllegalStateException](search(i, () => count()))
      }
      cleanRuns
    }
    assert(after == expected)
  }

  test("a throwing walk predicate leaves the scratch clean") {
    throwingLeavesClean { (i, count) =>
      ComicBaselines.reverseAdoptingSet(dense, i.toLong, i % dense.n, _ => { count(); true })
    }
  }

  test("a throwing query predicate leaves the scratch clean") {
    val none = new Array[Boolean](dense.n)
    throwingLeavesClean { (i, count) =>
      ComicBaselines.adoptsInSpread(dense, i.toLong, none, _ => { count(); 1.0 }, 13)(i % dense.n)
    }
  }

  /** Runs `search(w, root)` for a dense-graph walk of at least two nodes,
    * expecting it to reject the search its predicate starts, then checks
    * that walks and queries on the small graph are unchanged.
    */
  private def reentryRejected(search: (Long, Int) => Unit): Unit = {
    val i = walksOf(dense, 2).head
    def after = ((0 until 50).map(walk(small, _)), (0 until 50).map(query(small, _)))
    val expected = onNewThread(after)
    assert(onNewThread {
      intercept[IllegalArgumentException](search(i.toLong, i % dense.n))
      after
    } == expected)
  }

  test("starting a walk from inside its own predicate is rejected") {
    reentryRejected { (w, root) =>
      ComicBaselines.reverseAdoptingSet(dense, w, root, u => { if (u != root) ComicBaselines.reverseAdoptingSet(small, 1, 1, _ => true); true })
    }
  }

  test("starting a query from inside its own predicate is rejected") {
    reentryRejected { (w, root) =>
      ComicBaselines.adoptsInSpread(dense, w, new Array[Boolean](dense.n), u => {
        if (u != root) ComicBaselines.adoptsInSpread(small, 1, seeds(small), _ => 1.0, 13)(1); 1.0
      }, 13)(root)
    }
  }

  test("queries inside a walk predicate equal the queries alone") {
    val ids = 0 until 300
    val alone = onNewThread(ids.map(i => walk(dense, i) -> (0 until 5).map(j => query(big, 5 * i + j))))
    val nested = onNewThread(ids.map { i =>
      var j = 0
      val answers = Array.newBuilder[Boolean]
      val rr = ComicBaselines.reverseAdoptingSet(dense, i.toLong, i % dense.n, { u =>
        if (j < 5) { answers += query(big, 5 * i + j); j += 1 }
        adopts(i.toLong)(u)
      })
      rr.toSeq -> answers.result().toSeq
    })
    // every walk whose predicate ran five times asked all five queries
    assert(nested.zip(alone).forall { case ((w1, a1), (w2, a2)) => w1 == w2 && a1 == a2.take(a1.length) })
    assert(nested.count(_._2.length == 5) > 100)
  }
}
