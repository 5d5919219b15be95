package repro

import java.util.SplittableRandom

import repro.graph.{GraphGen, SocialGraph}
import repro.items.NoiseSpec

/** Inputs that only the tests build: graphs from edge lists and small
  * uniform random graphs, node degrees, and noise-free utility models.
  */
object TestInputs {

  /** `SocialGraph.fromArcs` over `(u, v)` pairs with weighted-cascade probabilities. */
  def fromEdges(name: String, n: Int, edges: Array[(Int, Int)], undirected: Boolean = false): SocialGraph =
    SocialGraph.fromArcs(name, n, edges.map(_._1), edges.map(_._2), None, undirected)

  /** `SocialGraph.fromArcs` over `(u, v, p)` triples with explicit probabilities. */
  def fromEdgesWithProb(name: String, n: Int, edges: Array[(Int, Int, Double)], undirected: Boolean = false): SocialGraph =
    SocialGraph.fromArcs(name, n, edges.map(_._1), edges.map(_._2), Some(edges.map(_._3)), undirected)

  /** Erdős–Rényi-ish small random graph: up to `targetEdges` distinct arcs,
    * both endpoints uniform, weighted-cascade probabilities.
    */
  def uniformDirected(name: String, n: Int, targetEdges: Int, seed: Long = 11): SocialGraph = {
    val rng = new SplittableRandom(seed)
    GraphGen.distinctArcs(name, n, targetEdges, targetEdges.toLong * 50, undirected = false)(rng.nextInt(n), rng.nextInt(n))
  }

  /** Out-degree of node `u`. */
  def outDeg(g: SocialGraph, u: Int): Int = g.fwdOff(u + 1) - g.fwdOff(u)

  /** In-degree of node `v`. */
  def inDeg(g: SocialGraph, v: Int): Int = g.revOff(v + 1) - g.revOff(v)

  /** Zero noise on each of `k` items. */
  def noNoise(k: Int): NoiseSpec = NoiseSpec(Array.fill(k)(0.0))
}
