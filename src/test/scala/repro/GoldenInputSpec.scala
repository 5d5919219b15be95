package repro

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

import repro.Golden.digest
import repro.core.Configs
import repro.graph.{GraphGen, SocialGraph}

/** Golden model inputs: the six CSR arrays of every generated and
  * hand-built graph the suites and benchmarks use, and for every
  * configuration its value table, deterministic utility, one sampled
  * utility table and (two-item configurations) its GAP parameters.
  *
  * A change to how graphs or valuations are built that is meant to keep
  * every output the same must leave these hashes unchanged: same RNG draw
  * order, same arc order within each node, same doubles.
  */
class GoldenInputSpec extends AnyFunSuite {

  /** The CSR arrays, with each arc's probability read through `fwdP` and
    * `revP` in CSR order, whether the graph holds it per arc or per node.
    */
  private def csr(g: SocialGraph): String = digest { d =>
    val revP = new Array[Double](g.revSrc.length)
    for (v <- 0 until g.n; e <- g.revOff(v) until g.revOff(v + 1)) revP(e) = g.revP(e, v)
    d.add(g.n.toLong); d.add(if (g.undirected) 1L else 0L)
    d.ints(g.fwdOff); d.ints(g.fwdDst); d.doubles(Array.tabulate(g.fwdDst.length)(g.fwdP))
    d.ints(g.revOff); d.ints(g.revSrc); d.doubles(revP)
  }

  test("CSR arrays of the four Table 2 stand-ins") {
    val graphs = Seq(GraphGen.flixsterLite(), GraphGen.doubanBookLite(),
      GraphGen.doubanMovieLite(), GraphGen.twitterLite())
    assert(graphs.map(csr) == Seq("067ace79078280ea", "ea76884cb5c6b15b", "7d48dbdc3117002b", "4c27802d25d716c3"))
  }

  test("CSR arrays of the golden suites' generated graphs") {
    val graphs = Seq(GraphGen.powerLawDirected("golden-d", 2000, 16000, seed = 5),
      GraphGen.powerLawUndirected("golden-u", 1500, 6000, seed = 6),
      TestInputs.uniformDirected("golden-alloc-uni", 1000, 5000, seed = 3))
    assert(graphs.map(csr) == Seq("b10ffbfd482c808b", "ac088a9c28f2bb8e", "928054786a87fc89"))
  }

  test("CSR arrays of hand-built graphs with a duplicate arc") {
    // Arc 2 -> 3 appears twice; nodes 1 and 3 have several in- and out-arcs.
    val arcs = Array((0, 1), (2, 3), (1, 2), (2, 3), (3, 0), (1, 3), (4, 1), (3, 4), (1, 0))
    val probs = Array(0.9, 0.2, 0.6, 0.7, 0.5, 0.3, 0.8, 0.4, 0.1)
    val weighted = arcs.zip(probs).map { case ((u, v), p) => (u, v, p) }
    val graphs = Seq(TestInputs.fromEdges("golden-wc", 5, arcs),
      TestInputs.fromEdgesWithProb("golden-p", 5, weighted, undirected = true))
    assert(graphs.map(csr) == Seq("7ee2f80d89a1b5c4", "41ef3acaebdb0eed"))
  }

  /** Value table, deterministic utility and one sampled utility table. */
  private def model(cfg: Configs.Config): String = digest { d =>
    val m = cfg.model
    d.doubles(Array.tabulate(1 << m.k)(mask => m.valuation(mask)))
    d.doubles(cfg.detUtil)
    d.doubles(m.sampleUtilityTable(new SplittableRandom(77)))
  }

  test("value, deterministic and sampled utility tables of every configuration") {
    val configs = Configs.table3 ++ Seq(Configs.config7(10), Configs.configCone(8, 10, 0),
      Configs.configCone(9, 10, 9), Configs.config10(10), Configs.realPs4,
      Configs.config10(4, seed = 3), Configs.config7(20))
    val want = Seq("baa7b4bb215568a7", "baa7b4bb215568a7", "cb25054c279ce5dd", "cb25054c279ce5dd",
      "844cea2d72805245", "844cea2d72805245", "5bc4f3f1ba130342", "e7ef84acefdeb4ad", "62bcd57a608967eb",
      "1dda382e8ccdb37c", "de3aec1102f8a9f6", "00138bb1c2f1d604", "4db9864ee434239d")
    assert(configs.map(model) == want)
  }

  test("GAP parameters of configurations 1-6") {
    val gaps = Configs.table3.map(c => digest { d =>
      d.doubles(Array(c.gap.qA0, c.gap.qAB, c.gap.qB0, c.gap.qBA))
    })
    assert(gaps == Seq("b6d3742e29659ea3", "b6d3742e29659ea3", "b41cc1e72a07aae3", "b41cc1e72a07aae3",
      "eb6959ef9935c6df", "eb6959ef9935c6df"))
  }
}
