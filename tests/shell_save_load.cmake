# End-to-end check that examples/mpfdb_shell saves, loads and answers:
# builds a database, queries it, then saves and loads it twice (the second
# save writes a new generation over the first) and queries after each load.
#
#   cmake -DSHELL=<mpfdb_shell> -DWORK_DIR=<scratch dir> -P shell_save_load.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(db "${WORK_DIR}/db")
set(query "SELECT x, SUM(f) FROM v GROUP BY x;\n")
file(WRITE "${WORK_DIR}/input.sql"
  "CREATE VARIABLE x DOMAIN 3;\n"
  "CREATE VARIABLE y DOMAIN 2;\n"
  "CREATE TABLE a (x, y; f);\n"
  "INSERT INTO a VALUES (0, 0, 1.5), (1, 0, 2.0), (1, 1, 0.5);\n"
  "CREATE TABLE b (y; g);\n"
  "INSERT INTO b VALUES (0, 2.0), (1, 4.0);\n"
  "CREATE MPFVIEW v AS SELECT * FROM a, b;\n"
  "${query}"
  "\\save ${db}\n" "\\load ${db}\n" "${query}"
  "\\save ${db}\n" "\\load ${db}\n" "${query}"
  "\\quit\n")
execute_process(COMMAND "${SHELL}"
                INPUT_FILE "${WORK_DIR}/input.sql"
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mpfdb_shell exited with ${rc}:\n${out}")
endif()

# The transcript after the banner: one prompt and reply per input line.
set(answer "v_result (x; f) [2 rows]\n  (0; 3)\n  (1; 6)\n")
string(CONCAT expected
  "mpfdb> registered variable x with domain 3\n"
  "mpfdb> registered variable y with domain 2\n"
  "mpfdb> created table a\n"
  "mpfdb> inserted 3 rows into a\n"
  "mpfdb> created table b\n"
  "mpfdb> inserted 2 rows into b\n"
  "mpfdb> created mpfview v\n"
  "mpfdb> ${answer}"
  "mpfdb> saved\n" "mpfdb> loaded\n" "mpfdb> ${answer}"
  "mpfdb> saved\n" "mpfdb> loaded\n" "mpfdb> ${answer}"
  "mpfdb> \n")
string(FIND "${out}" "mpfdb> " start)
string(SUBSTRING "${out}" ${start} -1 transcript)
if(NOT transcript STREQUAL expected)
  message(FATAL_ERROR "unexpected transcript:\n${transcript}")
endif()
file(GLOB tables RELATIVE "${db}" "${db}/*.csv")
if(NOT tables STREQUAL "a.g2.csv;b.g2.csv")
  message(FATAL_ERROR "expected only the second generation's files, got: ${tables}")
endif()
