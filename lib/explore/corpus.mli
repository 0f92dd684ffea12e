(** Replayable counterexample corpus files.

    A corpus file is the serialized form of one shrunk {!Exec.input} plus
    the verdict it produced — a line-oriented [key value] text format
    under the version header ["rss-explore/corpus/v1"]. Replaying a file
    re-executes its input and compares {!Exec.verdict_string} against the
    stored expectation byte-for-byte; because every execution is a pure
    function of its input, a corpus checked in once keeps reproducing the
    same violation on every machine. *)

val version : string

type entry = {
  input : Exec.input;
  expected : string;  (** {!Exec.verdict_string} of the recorded verdict *)
}

val to_string : entry -> string
val of_string : string -> (entry, string) result

val save : string -> entry -> unit
(** Write to a path, creating parent directories as needed. *)

val load : string -> (entry, string) result

val file_name : entry -> string
(** Canonical file name: [<protocol>-<preset>-<digest8>.corpus], the
    digest taken over the serialized input so distinct repros never
    collide. *)

type replay = {
  entry : entry;
  outcome : Exec.outcome;
  matches : bool;  (** replayed verdict = stored verdict, byte-for-byte *)
}

val replay : entry -> replay

val replay_file : string -> (replay, string) result
