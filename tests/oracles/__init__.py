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
* :mod:`tests.oracles.sensors` — one simulation process per host's NWS
  CPU sensor, behind the one-timer ``repro.nws.CpuSensorSweep``.
* :mod:`tests.oracles.metasched` — the cancel-all/rebuild-all
  metascheduler planner, its linear window search and the linear
  per-host busy scan that search calls, behind
  ``repro.metasched.MetaScheduler``, ``ReservationBook.find_window``
  and ``ReservationBook.free_now``.
* :mod:`tests.oracles.graphs` — networkx's Dijkstra and
  lexicographical topological sort, behind ``repro.microgrid.Topology``
  routing and ``repro.scheduler.Workflow``; its topological generations
  give the app-workflow tests their stage structure.
* :mod:`tests.oracles.nnls` — scipy's ``nnls``, behind the numpy
  subset-search solver in ``repro.perfmodel.fit_flop_model``.
* :mod:`tests.oracles.ranking` — the per-cell ``ecost``, behind the
  one-forecast-read-per-resource ``repro.scheduler.build_rank_matrix``.

They live with the tests because nothing in the product runs them;
scipy and networkx are test-only dependencies for ``nnls`` and
``graphs``.
"""
