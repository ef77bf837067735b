# Runs khop_tool (TOOL) to a successful exit on the valid network in INPUT
# (30 nodes): `cluster 2 ac-lmst` must print the layout table (a `#` header
# plus one "id x y role cluster dist_to_head" row per node, ids ascending),
# `route 2 0 29` a route, and `dot 2` a Graphviz graph.
function(run_tool out_var)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  INPUT_FILE "${INPUT}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${TOOL} ${ARGN}: expected exit 0, got '${rc}'\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_prefix text prefix what)
  string(FIND "${text}" "${prefix}" at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR "${what}: output does not start with '${prefix}':\n${text}")
  endif()
endfunction()

run_tool(layout cluster 2 ac-lmst)
expect_prefix("${layout}" "# id x y role cluster dist_to_head\n" "cluster")
string(REGEX MATCHALL "[^\n]*\n" lines "${layout}")
list(LENGTH lines count)
if(NOT count EQUAL 31)
  message(FATAL_ERROR "cluster: expected a header and 30 rows, got ${count} lines:\n${layout}")
endif()
list(REMOVE_AT lines 0)
set(id 0)
foreach(row IN LISTS lines)
  if(NOT row MATCHES "^${id} [^ ]+ [^ ]+ [012] [0-9]+ [0-9]+\n$")
    message(FATAL_ERROR "cluster: row ${id} is malformed: '${row}'")
  endif()
  math(EXPR id "${id} + 1")
endforeach()

run_tool(route route 2 0 29)
expect_prefix("${route}" "route (" "route")

run_tool(dot dot 2)
expect_prefix("${dot}" "graph khop {" "dot")
