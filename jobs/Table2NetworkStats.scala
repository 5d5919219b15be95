package repro.jobs

import repro.exp.Experiments
import repro.exp.Experiments.Table
import repro.graph.SocialGraph

/** Table 2: statistics of the four stand-in networks, printed in the
  * paper's format and checked against the published node/edge counts
  * (Twitter is the documented scale-down, so only its average degree is
  * compared).
  */
object Table2NetworkStats {
  def main(args: Array[String]): Unit = table().show()

  /** Published (nodes, edges, avg degree, type) per network. */
  private val paper = Map(
    "Flixster" -> (12900, 96000L, 14.8, "undirected"),
    "Douban-Book" -> (23300, 141000L, 6.5, "directed"),
    "Douban-Movie" -> (34900, 274000L, 7.9, "directed"),
    "Twitter" -> (50000, 3500000L, 70.5, "directed"), // scaled from 41.7M/1.47G
  )

  /** Gate: each network has the paper's node and edge counts and type. */
  def table(graphs: Seq[SocialGraph] = Experiments.networkNames.map(Experiments.network)): Table = {
    def edges(g: SocialGraph): Long = if (g.undirected) g.m / 2 else g.m
    def kind(g: SocialGraph): String = if (g.undirected) "undirected" else "directed"
    val rows = graphs.map { g =>
      val paperDegree = paper.get(g.name).fold("-")(_._3.toString)
      Seq[Any](g.name, g.n, edges(g), f"${g.avgDegree}%.1f (paper $paperDegree)", kind(g))
    }
    val failed = Experiments.unmet(graphs.map { g =>
      paper.get(g.name).exists { case (pn, pm, _, pt) => g.n == pn && edges(g) == pm && kind(g) == pt } ->
        s"${g.name}: nodes ${g.n}, edges ${edges(g)}, ${kind(g)} differ from the paper"
    })
    Table("Table 2: Network Statistics (stand-ins)",
      Seq("network", "nodes", "edges", "avg_degree", "type"), rows, failed)
  }
}
