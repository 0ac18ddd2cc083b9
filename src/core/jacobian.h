#pragma once
// Landau collision-operator matrix construction — the paper's central kernel
// (Algorithm 1) in three implementations sharing one context:
//
//  * Backend::Cpu       — plain loops (the "common CPU code" reference),
//  * Backend::CudaSim   — Algorithm 1 on the emulated CUDA model: shared
//                         memory staging, warp-shuffle reductions across
//                         threadIdx.x, atomic global accumulation,
//  * Backend::KokkosSim — the Kokkos formulation: league member per element,
//                         vector-lane parallel_reduce on a (G_K, G_D) reducer
//                         object, team-parallel Transform & Assemble.
//
// Each back-end runs two launches (DESIGN.md §3.1). The inner integral
// (lines 3-12) evaluates every unordered pair of integration points once and
// accumulates G = (G_K, G_D) of every point into a buffer of kGDoubles per
// point; block c owns its own cell's pairs and the cyclic half of the other
// cells (detail::owned_cells). Transform & Assemble (lines 13-23) then
// reads G one element per block.
//
// All three must produce identical matrices to roundoff; a test asserts it.
//
// The assembled matrix C is the weak-form collision operator *linearized
// about the packed state* (D and K frozen): M df/dt = C(f) f, which is both
// the quasi-Newton Jacobian contribution and — applied to f — the exact
// nonlinear residual of the collision term.

#include <memory>
#include <span>
#include <vector>

#include "core/ip_data.h"
#include "core/species.h"
#include "exec/annotations.h"
#include "exec/check.h"
#include "exec/counters.h"
#include "exec/thread_pool.h"
#include "fem/fespace.h"
#include "la/csr.h"

namespace landau {

enum class Backend { Cpu, CudaSim, KokkosSim };

const char* backend_name(Backend b);

/// Everything the kernels need, plus the per-species coefficient tables
/// (factored out of the inner loop as in §III-A).
struct JacobianContext {
  const fem::FESpace* fes = nullptr;
  const SpeciesSet* species = nullptr;
  const IPData* ip = nullptr;
  bool atomic_assembly = true; // GPU back-ends use atomicAdd (§III-F) into G and J
  double nu0 = 1.0;            // global collision prefactor (nu_ee = 1 normalized)

  // Optional COO sink (§III-F's second assembly interface): when set,
  // assemble_element streams element values into this buffer — one fixed
  // slot per (cell, species, test, trial, closure-pair) — instead of
  // scattering into the CSR matrix; a CooAssembler then compresses them.
  std::vector<double>* coo_values = nullptr;
  const std::vector<std::size_t>* coo_cell_offsets = nullptr;

  // The grid this context assembles (§III-H). Its cells' integration points
  // start at ip_offset in the packed arrays; only grid_species have dofs on
  // it (the others enter the inner integral through the IP data but
  // assemble nothing here); species s's dof block starts at
  // species_offsets[s]. init() sets up the only grid of all species.
  std::size_t ip_offset = 0;
  std::vector<int> grid_species;
  std::vector<std::size_t> species_offsets;

  // Coefficient tables: q^2, q^2 m0/m, q^2 (m0/m)^2 per species.
  std::vector<double> q2, q2_over_m, q2_over_m2;

  /// The two species scalars of Transform & Assemble (Algorithm 1 lines
  /// 13-20): species s's element matrix is ck(s) CK + cd(s) CD.
  double ck(int s) const { return nu0 * q2_over_m[static_cast<std::size_t>(s)]; }
  double cd(int s) const { return -nu0 * q2_over_m2[static_cast<std::size_t>(s)]; }

  void init(const fem::FESpace& f, const SpeciesSet& s, const IPData& d);

  std::size_t n_free() const { return fes->n_dofs(); }
};

/// Add the collision matrix C of a one-grid operator into J (J must carry
/// the block sparsity, the same pattern in every species block).
void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              const JacobianContext& ctx, la::CsrMatrix& j,
                              exec::KernelCounters* counters = nullptr);

/// The same for every grid of an operator: the inner integral once over the
/// packed points all grids share, then Transform & Assemble per grid. `g`
/// is the caller's G buffer (see landau_inner_integral).
void assemble_landau_jacobian(Backend backend, exec::ThreadPool& pool,
                              std::span<const JacobianContext> grids, std::vector<double>& g,
                              la::CsrMatrix& j, exec::KernelCounters* counters = nullptr);

/// The inner-integral launch alone: G of every packed point of ctx.ip into
/// `g`, resized to kGDoubles arrays of ip.n (core/kernel_math.h).
void landau_inner_integral(Backend backend, exec::ThreadPool& pool, const JacobianContext& ctx,
                           std::vector<double>& g, exec::KernelCounters* counters = nullptr);

/// Add s * (cylindrical) mass matrix into every species block of J using the
/// exec-model mass kernel (the paper's separately-profiled second kernel).
void assemble_mass_kernel(exec::ThreadPool& pool, const JacobianContext& ctx, double shift,
                          la::CsrMatrix& j, exec::KernelCounters* counters = nullptr);

/// COO assembly of the Landau Jacobian: the coordinate list is fixed once at
/// construction (MatSetPreallocationCOO) and does not require the CPU
/// first-assembly step of the traditional interface; each assemble() call
/// runs the kernel with the COO sink and compresses (MatSetValuesCOO).
class CooJacobianAssembler {
public:
  CooJacobianAssembler(const fem::FESpace& fes, int n_species);

  /// Run the kernel about ctx's packed state and assemble into matrix().
  void assemble(Backend backend, exec::ThreadPool& pool, JacobianContext ctx,
                exec::KernelCounters* counters = nullptr);

  const la::CsrMatrix& matrix() const { return coo_->matrix(); }
  std::size_t coo_size() const { return values_.size(); }

private:
  std::unique_ptr<la::CooAssembler> coo_;
  std::vector<std::size_t> cell_offsets_;
  std::vector<double> values_;
  std::vector<double> g_; // the inner integral's G
};

namespace detail {

/// Read-only view of one cell's element matrices (all species), laid out
/// [species][a][b]: what the kernels hand to assemble_element, from an
/// ElementMatrices or straight from a block's shared memory.
struct ElementBlock {
  const double* c = nullptr;
  int n_species = 0, nb = 0;
  double at(int s, int a, int b) const {
    return c[(static_cast<std::size_t>(s) * nb + a) * nb + b];
  }
};

/// Element matrices of one cell (all species), in node space. The per-backend
/// kernels fill this; assembly into the global matrix is shared.
struct ElementMatrices {
  int nb = 0, n_species = 0;
  std::vector<double> c; // [species][a][b]
  double& at(int s, int a, int b) { return c[(static_cast<std::size_t>(s) * nb + a) * nb + b]; }
  double at(int s, int a, int b) const {
    return c[(static_cast<std::size_t>(s) * nb + a) * nb + b];
  }
  void resize(int ns, int nbasis) {
    n_species = ns;
    nb = nbasis;
    c.assign(static_cast<std::size_t>(ns) * nb * nb, 0.0);
  }
  ElementBlock view() const { return {c.data(), n_species, nb}; }
};

/// The weighted species sums (w tk_r, w tk_z, w td) of every packed
/// integration point, as three consecutive arrays of ip.n: the
/// once-per-call pre-pass of every back-end's inner integral. Reads
/// ip.w/f/dfr/dfz through checked views under its own checker scope.
std::vector<double> stage_species_sums(const JacobianContext& ctx,
                                       exec::KernelCounters* counters);

/// Scatter one cell's element matrices into the global block matrix through
/// `out`, a view of J's value array (or of the COO sink) bound to the
/// executing block: atomic adds when ctx.atomic_assembly, plain adds
/// otherwise, recorded as device writes when the checker is active. Each
/// (a, b) closure pair's dofs and CSR position are resolved once for all
/// species: every species block of J has the same pattern, so only the row
/// offset differs.
LANDAU_DEVICE void assemble_element(const JacobianContext& ctx, std::size_t cell,
                                    const ElementBlock& ce, const la::CsrMatrix& j,
                                    const exec::check::checked_span<double>& out);

} // namespace detail
} // namespace landau
