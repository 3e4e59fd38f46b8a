"""The paper's future-work extensions, kept beside the benches that measure them.

No request, maintenance cycle or paper figure reaches these modules, so
they live outside the ``repro`` package.  They build on ``repro`` and
``repro`` never imports them:

- :mod:`ext.optimizer` — join ordering over the estimates (§I);
- :mod:`ext.ranges` — range queries through histogram selectivities (§IV);
- :mod:`ext.monitor` — workload-shift detection and adaptation (§IV);
- :mod:`ext.compound` — the compound S+U estimator (§VII-B);
- :mod:`ext.lmkg_u_universal` — one NeuroCard-style LMKG-U over all shapes (§II);
- :mod:`ext.outliers` — an exact buffer for the outliers of Fig. 5;
- :mod:`ext.bayesnet` — Huang & Liu's Bayesian-network baseline (§II [14]).

``benchmarks/`` must be on ``sys.path``: ``pytest.ini`` puts it there
(``pythonpath``) for the tests under ``tests/`` and the
``benchmarks/bench_ext_*.py`` files; the scripts in
``benchmarks/ext/examples`` run as
``PYTHONPATH=src:benchmarks python benchmarks/ext/examples/<name>.py``.
"""
