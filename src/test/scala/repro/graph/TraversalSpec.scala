package repro.graph

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.Threads.{onFourThreads, onNewThread}
import repro.im.RRSets

/** `Traversal.reverseReach`, `Traversal.reverseCoinReach` and
  * `Traversal.reverseReaches` keep their visited flags and queues in
  * per-thread scratch arrays. These tests check that the scratch never
  * leaks state between calls: across threads, across graphs of different
  * sizes, after a callback throws, when a kernel is re-entered and when a
  * query runs inside a walk's callback. They also check that
  * `reverseCoinReach` is `reverseReach` with the IC coin, draw for draw.
  */
class TraversalSpec extends AnyFunSuite {

  private lazy val big = GraphGen.powerLawDirected("trav-big", 2000, 16000, seed = 5)
  private lazy val small = GraphGen.uniformDirected("trav-small", 60, 400, seed = 7)

  /** RR set `i` of `g`: the IC reverse reach drawn from sample id `i`. */
  private def draw(g: SocialGraph, i: Int): Seq[Int] = {
    val rng = new SplittableRandom(RRSets.mix(19, i.toLong))
    Traversal.reverseReach(g, rng.nextInt(g.n))((e, w) => rng.nextDouble() < g.revP(e, w)).toSeq
  }

  /** RR set `i` of `g` as [[draw]] draws it, through `reverseCoinReach`
    * when `coin` holds, with the RNG's next draw after the walk.
    */
  private def icWalk(g: SocialGraph, i: Int, coin: Boolean): (Seq[Int], Long) = {
    val rng = new SplittableRandom(RRSets.mix(19, i.toLong))
    val root = rng.nextInt(g.n)
    val walk =
      if (coin) Traversal.reverseCoinReach(g, root, rng)
      else Traversal.reverseReach(g, root)((e, w) => rng.nextDouble() < g.revP(e, w))
    (walk.toSeq, rng.nextLong())
  }

  private def coinDraw(g: SocialGraph, i: Int): (Seq[Int], Long) = icWalk(g, i, coin = true)

  /** 400 nodes, explicit probabilities: a quarter of the arcs have p = 0,
    * a twelfth p = 1 and the rest a random p below 0.25; 300 arcs appear
    * twice with their own probabilities.
    */
  private lazy val explicit = {
    val rng = new SplittableRandom(31)
    val n = 400
    val base = Array.fill(2400)((rng.nextInt(n), rng.nextInt(n)))
    val arcs = base ++ base.take(300)
    val probs = arcs.indices.map { i =>
      if (i % 4 == 0) 0.0 else if (i % 12 == 1) 1.0 else 0.25 * rng.nextDouble()
    }.toArray
    SocialGraph.fromArcs("trav-explicit", n, arcs.map(_._1), arcs.map(_._2), Some(probs), undirected = false)
  }

  /** Live edges of query `i`: a quarter of all edges, fixed per query. */
  private def queryLive(i: Int): (Int, Int) => Boolean = (e, _) => (RRSets.mix(i.toLong, e.toLong) & 3L) == 0L

  private def queryTarget(u: Int): Boolean = u % 40 == 0

  /** Query `i`: does a multiple of 40 reach node `i` over query `i`'s live edges? */
  private def query(g: SocialGraph, i: Int): Boolean = Traversal.reverseReaches(g, i % g.n)(queryLive(i))(queryTarget)

  /** Nodes with in-edges from at least three other nodes. */
  private def wellFed(g: SocialGraph): Seq[Int] =
    (0 until g.n).filter(v => (g.revOff(v) until g.revOff(v + 1)).map(g.revSrc).filter(_ != v).distinct.size >= 3)

  test("concurrent draws on four threads equal serial draws") {
    val ids = 0 until 4000
    val serial = onNewThread(ids.map(draw(big, _)))
    assert(onFourThreads(ids)(draw(big, _)) == serial)
  }

  test("interleaving graphs of different sizes on one thread does not change results") {
    val ids = 0 until 500
    val smallAlone = onNewThread(ids.map(draw(small, _)))
    val bigAlone = onNewThread(ids.map(draw(big, _)))
    // Small first, so the scratch has to grow for the big graph.
    val interleaved = onNewThread(ids.map(i => (draw(small, i), draw(big, i))))
    assert(interleaved.map(_._1) == smallAlone)
    assert(interleaved.map(_._2) == bigAlone)
  }

  test("a throwing callback leaves the scratch clean") {
    val ids = 0 until 200
    val expected = onNewThread(ids.map(draw(big, _)))
    val after = onNewThread {
      // each root adds two tails before the third callback throws
      wellFed(big).take(200).foreach { root =>
        var calls = 0
        intercept[IllegalStateException] {
          Traversal.reverseReach(big, root) { (_, _) =>
            calls += 1
            if (calls == 3) throw new IllegalStateException("boom")
            true
          }
        }
      }
      ids.map(draw(big, _))
    }
    assert(after == expected)
  }

  test("re-entering reverseReach from its callback is rejected") {
    val expected = onNewThread((0 until 50).map(draw(small, _)))
    val after = onNewThread {
      intercept[IllegalArgumentException] {
        Traversal.reverseReach(big, wellFed(big).head)((_, _) => Traversal.reverseReach(small, 1)((_, _) => true).nonEmpty)
      }
      (0 until 50).map(draw(small, _))
    }
    assert(after == expected)
  }

  test("reverseCoinReach equals reverseReach with the IC coin under weighted cascade") {
    val ids = 0 until 4000
    val coin = ids.map(coinDraw(big, _))
    assert(coin == ids.map(icWalk(big, _, coin = false)))
    assert(coin.count(_._1.length > 20) > 100)
  }

  test("reverseCoinReach equals reverseReach with the IC coin under explicit probabilities") {
    val g = explicit
    assert(g.revProb.contains(0.0) && g.revProb.contains(1.0) && g.wcProb.isEmpty)
    val ids = 0 until 4000
    val coin = ids.map(coinDraw(g, _))
    assert(coin == ids.map(icWalk(g, _, coin = false)))
    assert(coin.count(_._1.length == 1) > 100 && coin.count(_._1.length > 20) > 100)
  }

  test("concurrent reverseCoinReach draws on graphs of three sizes equal serial reverseReach draws") {
    val ids = 0 until 1500
    val graphs = Seq(small, explicit, big)
    val serial = onNewThread(ids.map(i => graphs.map(icWalk(_, i, coin = false))))
    // each thread starts on the small graph, so its scratch grows twice
    assert(onFourThreads(ids)(i => graphs.map(coinDraw(_, i))) == serial)
  }

  test("reverseCoinReach sees clean scratch after a throwing reverseReach callback and is rejected inside one") {
    val ids = 0 until 200
    val expected = onNewThread(ids.map(i => (coinDraw(small, i), coinDraw(big, i))))
    val after = onNewThread {
      wellFed(big).take(100).foreach { root =>
        var calls = 0
        intercept[IllegalStateException] {
          Traversal.reverseReach(big, root) { (_, _) =>
            calls += 1
            if (calls == 3) throw new IllegalStateException("boom")
            true
          }
        }
      }
      intercept[IllegalArgumentException] {
        Traversal.reverseReach(big, wellFed(big).head) { (_, _) =>
          Traversal.reverseCoinReach(small, 1, new SplittableRandom(1)).nonEmpty
        }
      }
      ids.map(i => (coinDraw(small, i), coinDraw(big, i)))
    }
    assert(after == expected)
  }

  test("a 53-bit draw is below p exactly when it is below the coin threshold") {
    val rng = new SplittableRandom(43)
    val ps = Seq(0.0, 1.0) ++ (2 to 3000).map(1.0 / _) ++ Seq.fill(3000)(rng.nextDouble())
    ps.foreach { p =>
      val t = Traversal.coinThreshold(p)
      for (x <- Seq(t - 1, t) if x >= 0 && x < (1L << 53))
        assert((math.scalb(x.toDouble, -53) < p) == (x < t), s"p=$p x=$x")
    }
    assert(Traversal.coinThreshold(0.0) == 0L && Traversal.coinThreshold(1.0) == (1L << 53))
  }

  test("reverseReaches answers whether reverseReach's walk meets the target") {
    val answers = (0 until 2000).map { i =>
      val walk = Traversal.reverseReach(big, i % big.n)(queryLive(i))
      assert(query(big, i) == walk.exists(queryTarget), s"query $i")
      walk.exists(queryTarget)
    }
    assert(answers.contains(true) && answers.contains(false))
  }

  test("reverseReaches inside a reverseReach callback equals reverseReaches alone") {
    val ids = 0 until 300
    val alone = onNewThread(ids.map(i => draw(big, i) -> (0 until 5).map(j => query(big, 5 * i + j))))
    val nested = onNewThread(ids.map { i =>
      val rng = new SplittableRandom(RRSets.mix(19, i.toLong))
      var j = 0
      val answers = Array.newBuilder[Boolean]
      val walk = Traversal.reverseReach(big, rng.nextInt(big.n)) { (e, w) =>
        if (j < 5) { answers += query(big, 5 * i + j); j += 1 }
        rng.nextDouble() < big.revP(e, w)
      }
      walk.toSeq -> answers.result().toSeq
    })
    // every draw whose walk made five callbacks asked all five queries
    assert(nested.zip(alone).forall { case ((w1, a1), (w2, a2)) => w1 == w2 && a1 == a2.take(a1.length) })
    assert(nested.count(_._2.length == 5) > 100)
  }

  test("concurrent reverseReaches queries on four threads equal serial queries") {
    val ids = 0 until 4000
    val serial = onNewThread(ids.map(query(big, _)))
    assert(onFourThreads(ids)(query(big, _)) == serial)
  }

  test("a throwing reverseReaches callback leaves the scratch clean") {
    val ids = 0 until 500
    val expected = onNewThread((ids.map(query(small, _)), ids.map(query(big, _))))
    val after = onNewThread {
      wellFed(big).take(200).foreach { from =>
        var calls = 0
        intercept[IllegalStateException] {
          Traversal.reverseReaches(big, from) { (_, _) =>
            calls += 1
            if (calls == 3) throw new IllegalStateException("boom")
            true
          }(_ => false)
        }
      }
      (ids.map(query(small, _)), ids.map(query(big, _)))
    }
    assert(after == expected)
  }

  test("re-entering reverseReaches from its callback is rejected") {
    val after = onNewThread {
      intercept[IllegalArgumentException] {
        Traversal.reverseReaches(big, wellFed(big).head)((_, _) => query(small, 1))(_ => false)
      }
      (0 until 50).map(query(small, _))
    }
    assert(after == onNewThread((0 until 50).map(query(small, _))))
  }
}
