"""Reference oracles: literal copies of code that a faster form replaced.

Each module keeps the replaced implementation once, so every test that
checks the new form against the old one imports the same copy:

* :mod:`tests.oracles.clustering` — the row-copying cluster extractor;
* :mod:`tests.oracles.triangles` — the per-``j`` triangle enumeration;
* :mod:`tests.oracles.numbering` — ``np.unique`` endpoint and
  virtual-node numbering.
"""
