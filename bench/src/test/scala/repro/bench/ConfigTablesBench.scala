package repro.bench

import repro.jobs.{Table3Configs, Table4Configs, Table5RealParams}

/** Tables 3, 4 and 5: the experiment configurations, printed with their
  * derived quantities and checked against the paper's published values.
  */
class ConfigTablesBench extends TableBench {
  test("Table 3: two-item configurations and derived GAP parameters") { check(Table3Configs.table) }
  test("Table 4: multi-item configurations are valid supermodular models") { check(Table4Configs.table) }
  test("Table 5: learned PS4 parameters match the published rows") { check(Table5RealParams.table) }
}
