// Host-side compressed-sensing reconstruction (the paper's base station):
// recovers the ECG block from the transmitted measurements, closing the
// scientific loop the paper leaves open (it only ever measures the node).
//
// Method: the ECG block is sparse in an orthonormal Haar wavelet basis;
// with y = Phi * x and x = Psi * s this is the classic sparse-recovery
// problem, solved here by Orthogonal Matching Pursuit over the effective
// dictionary A = Phi * Psi (greedy support growth + least squares on the
// support via Cholesky).
//
// Fidelity is reported as PRD (percentage root-mean-square difference),
// the standard metric of the CS-ECG literature the paper builds on
// (Mamaghanian et al., TBME'11).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "app/cs.hpp"

namespace ulpmc::app {

/// Orthonormal Haar wavelet analysis (in place, length must be 2^k).
void haar_forward(std::span<double> x);

/// Orthonormal Haar synthesis (inverse of haar_forward).
void haar_inverse(std::span<double> x);

/// Dequantizes a transmitted symbol stream back to measurement estimates
/// (mid-rise reconstruction of the kernel's >>6 quantizer).
std::vector<double> dequantize_symbols(std::span<const Word> symbols);

/// OMP sparsity budget: at most this many atoms, so a matrix needs at
/// least this many rows.
inline constexpr unsigned kOmpMaxSupport = 64;
/// OMP stops once ||r||/||y|| drops below this.
inline constexpr double kOmpResidualTol = 1e-3;

/// Reconstructs a block from (possibly dequantized) measurements.
/// `y` has matrix.rows() entries. Returns matrix.cols() samples.
std::vector<double> cs_reconstruct(const CsMatrix& matrix, std::span<const double> y);

/// PRD [%] between the original samples and a reconstruction.
double prd_percent(std::span<const std::int16_t> original, std::span<const double> recon);

} // namespace ulpmc::app
