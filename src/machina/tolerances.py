"""Every tolerance in machina, set once here; no function takes one as an argument.
``MACHINA_TOL`` overrides ``EQUAL_TOL`` for majorization verdicts only."""

#: a probability, or a gap between two probabilities, is zero
ZERO_TOL = 1e-12
#: probabilities, norms and matrix entries are equal; the majorization default
EQUAL_TOL = 1e-9
#: an eigenvalue or a linear-system residual is zero
EIG_TOL = 1e-10
#: an iteration has converged: the overlap recursion's residual
#: max|Phi(G) - G| is below this
STEP_TOL = 1e-13
#: a transfer chain has landed on its target
LANDING_TOL = 1e-8
