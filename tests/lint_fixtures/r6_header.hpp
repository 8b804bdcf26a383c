// Fixture: R6 (header self-sufficiency) — uses std::string without
// including <string>, so it cannot compile on its own. tests/CMakeLists.txt
// builds it alone (hvc_header_check_fixture) and expects that to fail.
#pragma once

namespace fixture {

inline std::string r6_name() { return "not self sufficient"; }

}  // namespace fixture
