# Lists the demangled symbols of the static library LIB with NM and fails
# if any of them belongs to a preserved oracle (tests/oracles) or to the
# retired text checkpoint format. A listing without the library's own
# entry points fails too, so an unreadable archive cannot pass.
execute_process(COMMAND "${NM}" -C "${LIB}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE symbols
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${NM} -C ${LIB}: exit '${rc}'\n${err}")
endif()
if(NOT symbols MATCHES "khop::khop_clustering")
  message(FATAL_ERROR "${NM} -C ${LIB}: no khop::khop_clustering symbol")
endif()
set(forbidden
    "khop::reference::" "ReferenceChurnMaintainer" "prim_mst"
    "all_pairs_hops" "read_clustering" "write_clustering" "read_backbone"
    "write_backbone")
string(REPLACE ";" "|" pattern "${forbidden}")
string(REGEX MATCHALL "[^\n]*(${pattern})[^\n]*" hits "${symbols}")
if(hits)
  list(REMOVE_DUPLICATES hits)
  list(JOIN hits "\n" listing)
  message(FATAL_ERROR "${LIB} ships oracle or text-checkpoint symbols:\n${listing}")
endif()
