package repro.bench

import repro.jobs.Table2NetworkStats

/** Table 2: statistics of the four stand-in networks. */
class Table2NetworkStatsBench extends TableBench {
  test("Table 2: network statistics") { check(Table2NetworkStats.table()) }
}
