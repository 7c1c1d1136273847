"""The service's names for the one reliability-run spec.

A service request is a JSON document describing one reliability
comparison, validated by :meth:`ExperimentSpec.from_dict` -- the same
constructor ``repro reliability``, ``repro coordinate`` and a
``repro work`` handshake use (:mod:`repro.runtime.spec`).  Its
:meth:`~ExperimentSpec.fingerprint` is the job's cache identity; a
rejected document raises :class:`ServiceSpecError`, which the service
answers with HTTP 400.
"""

from repro.runtime.spec import ExperimentSpec, SpecError as ServiceSpecError

__all__ = ["ServiceSpecError", "ExperimentSpec"]
