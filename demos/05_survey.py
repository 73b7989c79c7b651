"""Survey of gcd(S(2), 2^(2p) + 1) across the eligible primes.

2^(4p) - 1 factors into the coprime halves 2^(2p) - 1 and 2^(2p) + 1, so
gcd(S(2), 2^(4p) - 1) splits as gcd_minus * gcd_plus. For the offset vectors
with w(0) != w(1) the minus part is provably 1 and 5 divides the plus part;
whether gcd_plus always equals exactly 5 is open. The survey tabulates the
data instead of asserting an answer.

The complemented vectors (w = 0000 and 1111) behave differently: there
3 | S(2), so gcd_minus = 3, and at p = 5 the plus part even jumps to 25.
The half-period bound phi >= 2p still holds at every grid point surveyed.
"""

from twoadic import survey_conjecture

rows = survey_conjecture(500, g_policy="smallest", w_policy="all")
print(f"{'p':>4} {'g':>3} {'w':>5} {'gcd-':>5} {'gcd+':>5} {'phi':>5} "
      f"{'2p':>5} {'4p-2':>5}")
for row in rows:
    tag = "".join(map(str, row.w))
    print(f"{row.p:>4} {row.g:>3} {tag:>5} {row.gcd_minus:>5} {row.gcd_plus:>5} "
          f"{row.phi:>5} {row.lower_bound:>5} {row.upper_bound:>5}")

in_family = [r for r in rows if r.w[0] != r.w[1]]
print("\nw(0) != w(1) rows with gcd_plus = 5:",
      f"{sum(1 for r in in_family if r.gcd_plus == 5)}/{len(in_family)}")
print("half-period bound holds everywhere:",
      all(r.phi >= r.lower_bound for r in rows))
