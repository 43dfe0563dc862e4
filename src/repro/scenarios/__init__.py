"""Declarative scenario engine.

One subsystem turns every experiment — paper figure, ablation,
extension, or new workload family — into data plus a point function:

* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, the serializable
  description (axis, values, params, columns);
* :mod:`repro.scenarios.registry` — the ``@scenario`` decorator and
  name-based lookup;
* :mod:`repro.scenarios.engine` — :func:`run_scenario`, the generic
  driver over the parallel sweep executors;
* :mod:`repro.scenarios.families` — workload families beyond the
  paper, each with the claim it shows.

The paper's tables, figures and ablations register themselves from
their own modules under :mod:`repro.experiments`.

See ``docs/SCENARIOS.md`` for the authoring guide.
"""
