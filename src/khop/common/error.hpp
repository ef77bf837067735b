/// \file error.hpp
/// Exception hierarchy. All khop-originated failures derive from khop::Error
/// so callers can catch library errors distinctly from std failures.
#pragma once

#include <stdexcept>
#include <string>

namespace khop {

/// Root of the khop exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// An internal invariant did not hold (library bug or corrupted input).
class InvariantViolation : public Error {
 public:
  using Error::Error;
};

/// An operation required a connected (sub)graph and the input was not.
class NotConnected : public Error {
 public:
  using Error::Error;
};

/// Persisted state (snapshot, write-ahead log) failed a format, checksum,
/// or continuity check on load.
class CorruptState : public Error {
 public:
  using Error::Error;
};

}  // namespace khop
