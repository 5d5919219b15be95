package repro.im

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.{ReverseBfs, TestInputs}
import repro.Threads.{onFourThreads, onNewThread}
import repro.graph.{GraphGen, SocialGraph}

/** `ICRRSampler` draws each RR set in per-thread scratch with the IC coin
  * `rng.nextDouble() < g.revP(e, w)` or the weighted-cascade skip inlined.
  * These tests check that it draws exactly what the plain reverse BFS
  * draws, draw for draw: with explicit probabilities, the same coin per
  * in-edge to an unvisited tail; under weighted cascade,
  * `ReverseBfs.skipping`'s geometric gaps. And that the scratch never
  * leaks state between draws: across threads and across graphs of
  * different sizes. `ICRRExactSpec` checks the distribution.
  */
class ICRRSamplerSpec extends AnyFunSuite {

  private lazy val big = GraphGen.powerLawDirected("ic-big", 2000, 16000, seed = 5)
  private lazy val small = TestInputs.uniformDirected("ic-small", 60, 400, seed = 7)

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
    SocialGraph.fromArcs("ic-explicit", n, arcs.map(_._1), arcs.map(_._2), Some(probs), undirected = false)
  }

  /** RR set `i` of `g`, drawn from sample id `i` by the sampler, or by the
    * reference BFS (the skip under weighted cascade, the IC coin
    * otherwise), with the RNG's next draw after it.
    */
  private def draw(g: SocialGraph, i: Int, reference: Boolean = false): (Seq[Int], Long) = {
    val rng = new SplittableRandom(RRSets.mix(19, i.toLong))
    val rr =
      if (!reference) new ICRRSampler(g).sample(rng)
      else if (g.wcProb.nonEmpty) ReverseBfs.skipping(g, rng.nextInt(g.n), rng)
      else ReverseBfs(g, rng.nextInt(g.n))((e, w) => rng.nextDouble() < g.revP(e, w))
    (rr.toSeq, rng.nextLong())
  }

  test("draws equal the reference BFS under weighted cascade") {
    val ids = 0 until 4000
    val drawn = ids.map(draw(big, _))
    assert(drawn == ids.map(draw(big, _, reference = true)))
    assert(drawn.count(_._1.length > 20) > 100)
  }

  test("draws equal the reference BFS under explicit probabilities") {
    val g = explicit
    assert(g.revProb.contains(0.0) && g.revProb.contains(1.0) && g.wcProb.isEmpty)
    val ids = 0 until 4000
    val drawn = ids.map(draw(g, _))
    assert(drawn == ids.map(draw(g, _, reference = true)))
    assert(drawn.count(_._1.length == 1) > 100 && drawn.count(_._1.length > 20) > 100)
  }

  test("concurrent draws on graphs of three sizes equal serial reference draws") {
    val ids = 0 until 1500
    val graphs = Seq(small, explicit, big)
    val serial = onNewThread(ids.map(i => graphs.map(draw(_, i, reference = true))))
    // each thread starts on the small graph, so its scratch grows twice
    assert(onFourThreads(ids)(i => graphs.map(draw(_, i))) == serial)
  }

  test("interleaving graph sizes on one thread does not change results") {
    val ids = 0 until 500
    val smallAlone = onNewThread(ids.map(draw(small, _)))
    val bigAlone = onNewThread(ids.map(draw(big, _)))
    // Small first, so the scratch has to grow for the big graph.
    val interleaved = onNewThread(ids.map(i => (draw(small, i), draw(big, i))))
    assert(interleaved.map(_._1) == smallAlone)
    assert(interleaved.map(_._2) == bigAlone)
  }
}
