#include "util/special_math.h"

#include <limits>

namespace landau {

void elliptic_ke(double m, double* K, double* E) noexcept {
  // AGM iteration (Abramowitz & Stegun 17.6): with a0=1, b0=sqrt(1-m), c0=sqrt(m),
  //   a_{n+1} = (a_n+b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n-b_n)/2,
  // K = pi/(2 a_inf), E = K (1 - sum 2^{n-1} c_n^2).
  // In floating point a and b end within an ulp or two of each other and may
  // swap every round from there on, so c cannot fall below about half an ulp
  // of a: the loop stops once c <= eps * a, which every m < 1 reaches, and
  // adds no rounds (hence no round-off) after that. K uses pi / (a + b),
  // which does not depend on which way round the final pair is. The sum is
  // added smallest term first: near m = 1 it approaches 1, and E = K (1 - sum)
  // magnifies its rounding error by K. The round cap only bounds the m = 1
  // pole (c = a/2 every round).
  if (m <= 0.0) {
    *K = kPi / 2.0;
    *E = kPi / 2.0;
    return;
  }
  constexpr int kMaxRounds = 64;
  double term[kMaxRounds + 1]; // 2^{n-1} c_n^2
  term[0] = 0.5 * m;           // c_0^2 = m
  double a = 1.0;
  double b = std::sqrt(1.0 - m);
  double pow2 = 0.5;
  int n = 0;
  for (; n < kMaxRounds; ++n) {
    const double c = 0.5 * (a - b);
    if (c <= std::numeric_limits<double>::epsilon() * a) break;
    const double an = 0.5 * (a + b);
    b = std::sqrt(a * b);
    a = an;
    pow2 *= 2.0;
    term[n + 1] = pow2 * (c * c);
  }
  double sum = 0.0;
  for (; n >= 0; --n) sum += term[n];
  *K = kPi / (a + b);
  *E = *K * (1.0 - sum);
}

double maxwellian_rz(double r, double z, double n, double theta, double vz0) noexcept {
  const double arg = (r * r + sqr(z - vz0)) / theta;
  return n / std::pow(kPi * theta, 1.5) * std::exp(-arg);
}

} // namespace landau
