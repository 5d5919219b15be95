package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

import repro.SparkSpec
import repro.exp.Experiments._
import repro.graph.GraphGen

/** Runs every table and figure definition once on a small graph with a
  * one-point grid and 2 Monte-Carlo runs. Only the table's shape is
  * checked: the paper-shape gates need the stand-in networks and the
  * paper's grids (`sbt bench/test`).
  */
class TableDefinitionsSpec extends AnyFunSuite with SparkSpec {

  private lazy val g = GraphGen.powerLawDirected("t", 250, 1800, seed = 51)

  private def assertShape(t: Table, headers: Seq[String], rows: Int): Unit = {
    assert(t.headers == headers)
    assert(t.rows.length == rows)
    assert(t.rows.forall(_.length == headers.length))
  }

  test("Table 2 has one row per graph") {
    assertShape(Table2NetworkStats.table(Seq(g)),
      Seq("network", "nodes", "edges", "avg_degree", "type"), 1)
  }

  test("Tables 3-5 list every configuration or published itemset") {
    assertShape(Table3Configs.table,
      Seq("No", "P(i1)/P(i2)/P(both)", "V(i1)/V(i2)/V(both)", "GAP qA0/qAB/qB0/qBA", "Budget"), 6)
    assertShape(Table4Configs.table, Seq("No", "Value", "Budget", "positive-utility lattice shape"), 4)
    assertShape(Table5RealParams.table, Seq("Itemset", "Price", "Value", "Noise", "det. utility"), 5)
  }

  test("Fig 3 has one column per two-item algorithm") {
    val tables = Fig3TwoItemWelfare.run(spark, g, Seq(1, 2), grid = _ => Seq(Array(4, 4)), runs = 2)
    assert(tables.zip(Seq(1, 2)).forall { case (t, no) => t.title.contains(s"Configuration $no (") })
    tables.foreach(assertShape(_, "budgets b1/b2" +: twoItemAlgos, 1))
  }

  test("Fig 3 rejects configuration numbers outside 1-6") {
    for (no <- Seq(0, 7)) intercept[IllegalArgumentException](Fig3TwoItemWelfare.run(spark, g, Seq(no)))
  }

  test("Fig 4 has one row per graph") {
    assertShape(Fig4RunningTime.run(spark, Seq(g), budget = 4), "network" +: twoItemAlgos, 1)
  }

  test("Fig 5 has one column per multi-item algorithm") {
    val tables = Fig5MultiItemWelfare.run(spark, g, Seq(8, 9), totals = Seq(100), runs = 2)
    assert(tables.zip(Seq(8, 9)).forall { case (t, no) => t.title.contains(s"Configuration $no,") })
    tables.foreach(assertShape(_, "total budget" +: multiItemAlgos, 1))
  }

  test("Fig 6 has one row per item count") {
    assertShape(Fig6ItemsRuntime.run(spark, g, k = 4, items = Seq(2)), "#items" +: multiItemAlgos, 1)
  }

  test("Fig 7 has one row per total budget") {
    assertShape(Fig7RealParams.run(spark, g, totals = Seq(20), runs = 2),
      Seq("total budget", "greedyWM welfare", "bundle-disj welfare", "greedyWM ms", "bundle-disj ms"), 1)
  }

  test("Fig 8 has one row per budget split") {
    assertShape(Fig8Skew.run(spark, g, splits = Seq("Uniform" -> Array.fill(10)(3)), runs = 2),
      Seq("distribution", "budgets", "E[welfare]", "time"), 1)
  }
}
