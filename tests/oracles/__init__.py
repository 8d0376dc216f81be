"""Pure-Python reference oracles the production engines are tested against.

Each oracle is the deliberately naive, from-scratch version of an
algorithm whose production path in ``repro`` is incremental:

* :mod:`tests.oracles.heuristics` — the list-scheduling heuristics
  (min-min, max-min, sufferage and the baselines) behind
  ``repro.scheduler.HEURISTICS``.
* :mod:`tests.oracles.network` — progressive-filling max-min fair
  bandwidth sharing behind ``repro.microgrid.Topology``.
* :mod:`tests.oracles.forecasting` — the numpy NWS forecaster battery
  (``np.median``, a ``lstsq`` fit on every AR window) behind
  ``repro.nws.forecasting``.
* :mod:`tests.oracles.metasched` — the cancel-all/rebuild-all
  metascheduler planner and its linear window search, behind
  ``repro.metasched.MetaScheduler`` and ``ReservationBook.find_window``.
* :mod:`tests.oracles.graphs` — networkx's Dijkstra, lexicographical
  topological sort and topological generations, behind
  ``repro.microgrid.Topology`` routing and ``repro.scheduler.Workflow``.
* :mod:`tests.oracles.nnls` — scipy's ``nnls``, behind the numpy
  subset-search solver in ``repro.perfmodel.fit_flop_model``.

They live with the tests because nothing in the product runs them;
scipy and networkx are test-only dependencies for the last two.
"""
