package repro.epic

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{PropHelpers, TestInputs}
import repro.Threads.{onFourThreads, onNewThread}
import repro.graph.{GraphGen, SocialGraph}
import repro.im.RRSets
import repro.items._

/** The paper's Example 1: network v1..v7, all edge probabilities 1.
  * Edges: v1->v2->v3->v4, v5->v3, v5->v6, v5->v7 — so sigma(v5)=5 beats
  * sigma(v1)=4, and v3/v4 are reachable from both v1 and v5.
  */
object Example1 {
  val g: SocialGraph = TestInputs.fromEdgesWithProb("ex1", 7, Array(
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 2, 1.0), (4, 5, 1.0), (4, 6, 1.0),
  ))
  // items i1,i2,i3; values so that U(i)=-1 per item, U({i1,i2})=U({i1,i3})=1,
  // U({i2,i3})=-1, U(all)=3 (Table 1).
  val model: UtilityModel = UtilityModel(
    Array(0.0, 1.0, 1.0, 5.0, 1.0, 5.0, 3.0, 9.0),
    Array(2.0, 2.0, 2.0),
    TestInputs.noNoise(3),
  )
  val util: Array[Double] = model.deterministicUtility

  /** Greedy allocation from Example 1: all items to v5 (node 4), i1 to v1. */
  val greedyAlloc: Map[Int, Int] = Map(4 -> 7, 0 -> 1)

  /** Alternative allocation: {i1,i2} to v1, {i1,i3} to v5. */
  val altAlloc: Map[Int, Int] = Map(0 -> 3, 4 -> 5)
}

class EpicSimulatorSpec extends AnyFunSuite with PropHelpers {
  import Example1._

  private lazy val big = GraphGen.powerLawDirected("epic-big", 2000, 16000, seed = 5)
  private lazy val small = TestInputs.uniformDirected("epic-small", 60, 400, seed = 7)

  /** One item worth 2 at price 1: every node a live edge reaches adopts it. */
  private val oneItem = UtilityModel(Array(0.0, 2.0), Array(1.0), TestInputs.noNoise(1)).deterministicUtility

  /** Diffusion `i` of `g`: the one item seeded at three nodes drawn from
    * sample id `i`, as the nodes that adopt it.
    */
  private def spread(g: SocialGraph, i: Int): Seq[Int] = {
    val rng = new SplittableRandom(RRSets.mix(23, i.toLong))
    val alloc = Array.fill(3)(rng.nextInt(g.n)).map(_ -> 1).toMap
    val adoption = EpicSimulator.diffuse(g, alloc, oneItem, rng)
    adoption.indices.filter(adoption(_) != 0)
  }

  /** Nodes with out-edges to at least three other nodes. */
  private def spreading(g: SocialGraph): Seq[Int] =
    (0 until g.n).filter(u => (g.fwdOff(u) until g.fwdOff(u + 1)).map(g.fwdDst).filter(_ != u).distinct.size >= 3)

  /** Instance `s`: a random graph of 30–79 nodes (weighted cascade, or the
    * same arcs with explicit probabilities in [0.2, 0.9)), two to four items
    * seeded on disjoint node sets of one to three nodes, and a utility table
    * in which adopting more items pays, so a node that one item reaches and
    * a later one grows pushes again.
    */
  private def rePushInstance(s: Long): (SocialGraph, Map[Int, Int], Array[Double]) = {
    val rng = new SplittableRandom(s)
    val n = 30 + rng.nextInt(50)
    val wc = TestInputs.uniformDirected("t", n, 4 * n, seed = s)
    val g = if (rng.nextBoolean()) wc else TestInputs.fromEdgesWithProb("t", n,
      Array.tabulate(n)(u => (wc.fwdOff(u) until wc.fwdOff(u + 1)).map(e => (u, wc.fwdDst(e), 0.2 + 0.7 * rng.nextDouble()))).flatten)
    val k = 2 + rng.nextInt(3)
    val nodes = new scala.util.Random(s).shuffle((0 until n).toList).iterator
    val alloc = (0 until k).flatMap(i => Seq.fill(1 + rng.nextInt(3))(nodes.next() -> (1 << i))).toMap
    val util = Array.tabulate(1 << k)(m => if (m == 0) 0.0 else Integer.bitCount(m) + rng.nextDouble() - 0.5)
    (g, alloc, util)
  }

  test("Example 1, greedy allocation: v3..v7 adopt all items, welfare 15") {
    val adoption = EpicSimulator.diffuse(g, greedyAlloc, util, new SplittableRandom(1))
    assert(adoption.toSeq == Seq(0, 0, 7, 7, 7, 7, 7))
    assert(EpicSimulator.welfare(util, adoption) == 15.0)
    assert(EpicSimulator.adoptionCount(adoption) == 15L)
  }

  test("Example 1, alternative allocation: welfare 11 but 16 adoptions") {
    val adoption = EpicSimulator.diffuse(g, altAlloc, util, new SplittableRandom(1))
    // v1,v2 adopt {i1,i2}; v3,v4 all; v5,v6,v7 {i1,i3}
    assert(adoption.toSeq == Seq(3, 3, 7, 7, 5, 5, 5))
    assert(EpicSimulator.welfare(util, adoption) == 11.0)
    assert(EpicSimulator.adoptionCount(adoption) == 16L)
  }

  test("Example 1: seeding a single negative-utility item adopts nothing") {
    val adoption = EpicSimulator.diffuse(g, Map(0 -> 1), util, new SplittableRandom(1))
    assert(adoption.forall(_ == 0))
    assert(EpicSimulator.welfare(util, adoption) == 0.0)
  }

  test("fixed-world diffusion is deterministic and replayable") {
    val a1 = HashedWorld.diffuseFixedWorld(g, greedyAlloc, util, worldSeed = 99)
    val a2 = HashedWorld.diffuseFixedWorld(g, greedyAlloc, util, worldSeed = 99)
    assert(a1.toSeq == a2.toSeq)
  }

  test("Lemma 4: adoption propagates through reachability in every world") {
    forSeeds(20) { s =>
      val rng = new SplittableRandom(s)
      val graph = TestInputs.uniformDirected("t", 60, 240, seed = s)
      val alloc = Map(rng.nextInt(60) -> 7, rng.nextInt(60) -> 3)
      val adoption = HashedWorld.diffuseFixedWorld(graph, alloc, util, worldSeed = s)
      // recompute live reachability with the same hash coupling
      val live = Array.tabulate(graph.n) { u =>
        (graph.fwdOff(u) until graph.fwdOff(u + 1))
          .filter(e => HashedWorld.edgeLive(graph, s)(e, u))
          .map(graph.fwdDst)
      }
      // BFS over live edges from every adopter of item i: all reached nodes must adopt i
      for (i <- 0 until 3; v <- 0 until graph.n if (adoption(v) & (1 << i)) != 0) {
        val seen = scala.collection.mutable.Set(v)
        val stack = scala.collection.mutable.Stack(v)
        while (stack.nonEmpty) {
          val u = stack.pop()
          live(u).foreach { w => if (!seen.contains(w)) { seen += w; stack.push(w) } }
        }
        seen.foreach { w =>
          assert((adoption(w) & (1 << i)) != 0,
            s"seed=$s: node $w reachable from adopter $v of item $i but did not adopt")
        }
      }
    }
  }

  test("Theorem 1 (per-world): welfare is monotone in the allocation") {
    forSeeds(30) { s =>
      val rng = new SplittableRandom(s)
      val graph = TestInputs.uniformDirected("t", 50, 200, seed = s)
      val a1 = Map(rng.nextInt(50) -> (1 + rng.nextInt(7)))
      val extra = Map(rng.nextInt(50) -> (1 + rng.nextInt(7)))
      val a2 = (a1.keySet ++ extra.keySet).map { v =>
        v -> (a1.getOrElse(v, 0) | extra.getOrElse(v, 0))
      }.toMap
      val w1 = EpicSimulator.welfare(util, HashedWorld.diffuseFixedWorld(graph, a1, util, s))
      val w2 = EpicSimulator.welfare(util, HashedWorld.diffuseFixedWorld(graph, a2, util, s))
      assert(w2 >= w1 - 1e-9, s"seed=$s: $w2 < $w1")
    }
  }

  test("all adoption sets are local maxima at the end of diffusion (Lemma 3)") {
    forSeeds(20) { s =>
      val graph = TestInputs.uniformDirected("t", 60, 240, seed = s)
      val rng = new SplittableRandom(s)
      val alloc = Map(rng.nextInt(60) -> 7, rng.nextInt(60) -> 6, rng.nextInt(60) -> 5)
      val adoption = EpicSimulator.diffuse(graph, alloc, util, rng)
      adoption.foreach(a => assert(ItemsetChecks.isLocalMaximum(util, a)))
    }
  }

  test("welfare of the empty allocation is 0") {
    val adoption = EpicSimulator.diffuse(g, Map.empty, util, new SplittableRandom(1))
    assert(adoption.forall(_ == 0))
  }

  test("adoption counts and welfare agree with direct recomputation") {
    forSeeds(15) { s =>
      val graph = TestInputs.uniformDirected("t", 40, 160, seed = s)
      val alloc = Map(0 -> 7, 1 -> 3)
      val adoption = HashedWorld.diffuseFixedWorld(graph, alloc, util, s)
      val w = adoption.map(util).sum
      val c = adoption.map(Integer.bitCount).sum
      assert(math.abs(EpicSimulator.welfare(util, adoption) - w) < 1e-9)
      assert(EpicSimulator.adoptionCount(adoption) == c)
    }
  }

  test("hash01 is uniform-ish and deterministic") {
    val xs = (0 until 10000).map(i => RRSets.hash01(42, i, 7))
    assert(xs == (0 until 10000).map(i => RRSets.hash01(42, i, 7)))
    val mean = xs.sum / xs.size
    assert(math.abs(mean - 0.5) < 0.02)
    assert(xs.forall(x => x >= 0.0 && x < 1.0))
  }

  test("concurrent diffusions on four threads equal serial diffusions") {
    val ids = 0 until 2000
    val serial = onNewThread(ids.map(spread(big, _)))
    assert(onFourThreads(ids)(spread(big, _)) == serial)
    assert(serial.count(_.length > 20) > 100)
  }

  test("diffusions interleaved on two graph sizes on one thread match") {
    val ids = 0 until 500
    val smallAlone = onNewThread(ids.map(spread(small, _)))
    val bigAlone = onNewThread(ids.map(spread(big, _)))
    // Small first, so the scratch has to grow for the big graph.
    val interleaved = onNewThread(ids.map(i => (spread(small, i), spread(big, i))))
    assert(interleaved.map(_._1) == smallAlone)
    assert(interleaved.map(_._2) == bigAlone)
    assert(bigAlone.count(_.length > 20) > 20)
  }

  test("an edge test that throws mid-round leaves the scratch clean") {
    val ids = 0 until 300
    val expected = onNewThread(ids.map(spread(big, _)))
    val after = onNewThread {
      spreading(big).take(100).foreach { seed =>
        // the seed's first two out-edges are live and touch their heads; the third throws
        var tested = 0
        intercept[IllegalStateException] {
          EpicSimulator.run(big, Map(seed -> 1), oneItem, supermodular = true, { (_, _) =>
            tested += 1
            if (tested == 3) throw new IllegalStateException("boom")
            true
          })
        }
      }
      ids.map(spread(big, _))
    }
    assert(after == expected)
  }

  test("starting a diffusion from inside the edge test is rejected") {
    val expected = onNewThread((0 until 50).map(spread(small, _)))
    val seed = spreading(big).head
    val after = onNewThread {
      intercept[IllegalArgumentException] {
        EpicSimulator.run(big, Map(seed -> 1), oneItem, supermodular = true, (_, _) => spread(small, 1).nonEmpty)
      }
      (0 until 50).map(spread(small, _))
    }
    assert(after == expected)
  }

  test("diffuse matches the coin-array reference where nodes push again") {
    var pushes, pushed = 0
    forSeeds(60) { s =>
      val (g, alloc, util) = rePushInstance(s)
      val (rng, refRng) = (new SplittableRandom(s), new SplittableRandom(s))
      val adoption = EpicSimulator.diffuse(g, alloc, util, rng)
      val order = scala.collection.mutable.ArrayBuffer.empty[Int]
      val expected = EpicReference.run(g, alloc, util, (e, _) => refRng.nextDouble() < g.fwdP(e), order += _)
      assert(adoption.toSeq == expected.toSeq, s"seed=$s")
      assert(rng.nextLong() == refRng.nextLong(), s"seed=$s: RNG state differs")
      pushes += order.length; pushed += order.distinct.length
    }
    // Over a third of all pushes are a node's second or later (about half at these seeds).
    assert(pushes - pushed > pushes / 3, s"$pushes pushes by $pushed nodes")
  }

  test("each out-edge of a pushed node is tested once, at its first push, in CSR order") {
    forSeeds(60) { s =>
      val (g, alloc, util) = rePushInstance(s)
      val live = HashedWorld.edgeLive(g, s) _
      val calls = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      val adoption = EpicSimulator.run(g, alloc, util, SetFunctions.isSupermodular(util), { (e, u) => calls += ((e, u)); live(e, u) })
      val order = scala.collection.mutable.ArrayBuffer.empty[Int]
      val expected = EpicReference.run(g, alloc, util, live, order += _)
      assert(adoption.toSeq == expected.toSeq, s"seed=$s")
      assert(calls == order.distinct.flatMap(u => (g.fwdOff(u) until g.fwdOff(u + 1)).map(e => (e, u))), s"seed=$s")
    }
  }
}
