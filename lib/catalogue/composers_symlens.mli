(** COMPOSERS-SYMLENS — the Composers example as a state-based symmetric
    lens (Hofmann–Pierce–Wagner), whose complement remembers the dates of
    every composer it has ever seen, keyed by (name, nationality).

    This entry exists to {e repair} the failure the paper's section 4
    Discussion exhibits: there, "the absence of any extra information
    besides the models means that the dates cannot be restored".  The
    complement is exactly that extra information — deleting an entry from
    [n] and restoring it brings the composer back {e with the original
    dates}, so the delete/restore round trip of the Discussion succeeds. *)

open Composers

type complement = {
  last_n : n;  (** The right model as last seen (preserves entry order). *)
  remembered : ((string * string) * string list) list;
      (** Dates ever seen per (name, nationality), newest knowledge
          first; survives deletion from both models. *)
}

val lens : (m, n, complement) Bx.Symlens.t

(** The paper's Discussion scenario, replayed through the symmetric
    lens: this time the dates come back. *)
type repair_trace = {
  initial_m : m;
  initial_n : n;
  m_after_delete : m;
  m_after_restore : m;
  dates_recovered : bool;
}

val repair_counterexample : unit -> repair_trace

val template : Bx_repo.Template.t
