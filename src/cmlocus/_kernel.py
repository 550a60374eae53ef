"""Name of the census implementation that ran: the pure-Python sieve in
``forms.reduced_forms``.  ``cmlocus --version`` prints it, and the
benchmark probe reads ``BACKEND`` from this module."""

BACKEND = "pure"
