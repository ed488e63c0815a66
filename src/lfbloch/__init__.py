"""Local-field-corrected Bloch equations for an emitter in a dielectric host.

Subpackage map:

- :mod:`lfbloch.medium`: complex Lorentz enhancement factor, Gaussian-unit
  conversions, lossless rate-comparison table.
- :mod:`lfbloch.ode`: batched adaptive Runge-Kutta integrators:
  Dormand-Prince 5(4) with dense output, and an exponential method for
  stiff linear parts (:mod:`lfbloch.exponential`, imported on first use).
- :mod:`lfbloch.dynamics`: the microscopic (emitter + host oscillator) and
  effective (factor-renormalized) semiclassical Bloch models.
- :mod:`lfbloch.verify`: host elimination identity, slow-mode eigenvalues,
  decay/frequency fitting, timescale-separation convergence study.
- :mod:`lfbloch.config` / :mod:`lfbloch.cli`: scenario files and the
  command-line front end.
- :mod:`lfbloch.csvrows`: ``%.12g`` CSV rows, a block at a time.
"""

__version__ = "0.1.0"
