(** COMPOSERS-BOOMERANG — the {e original, asymmetric} variant of the
    Composers example, as in Bohannon et al., "Boomerang: Resourceful
    Lenses for String Data" (POPL 2008): a dictionary string lens whose
    source is a newline-terminated CSV of ["name, dates, nationality"]
    records and whose view projects each record to ["name, nationality"].

    Because the iteration is {e resourceful} (chunks are aligned by their
    whole view line), the dates of a composer follow it when the view is
    reordered — the behaviour state-based restoration cannot provide, and
    the reason the paper's Discussion says undoability fails there. *)

val lens : Bx_strlens.Slens.t
(** The dictionary lens.  Source type:
    [(name, dddd-dddd, nationality\n)*]; view type: [(name, nationality\n)*]
    where names and nationalities are words over [A-Za-z ?]. *)

val build_lens : unit -> Bx_strlens.Slens.t
(** Construct {!lens} from scratch, rerunning every static check
    (ambiguity analyses, splitter compilation).  Used by the tests to
    assert that the {!Bx_regex.Dfa.compile} cache makes reconstruction
    free of DFA builds, and by the benchmarks to time construction. *)

val diff_lens : Bx_strlens.Slens.t
(** The same lens with LCS (diff) chunk alignment — the third point of
    the alignment-strategy ablation. *)

val name_of_view_line : string -> string
(** The key of {!name_keyed_lens}: a view record's name field. *)

val name_keyed_lens : Bx_strlens.Slens.t
(** The dictionary lens keyed by the composer's NAME only (the POPL'08
    [key] combinator's point): a nationality edit then reuses the old
    chunk — and its dates — instead of looking like delete-plus-create. *)

val positional_lens : Bx_strlens.Slens.t
(** The same lens with {e positional} chunk alignment — the ablation
    showing what resourcefulness buys: under view reordering, dates stay
    at their positions instead of following their composers. *)

val ref_line : Bx_strlens.Slens_ref.t
(** One record's lens on the copying reference engine, for rebuilding
    the other alignment variants there. *)

val ref_lens : Bx_strlens.Slens_ref.t
(** {!lens} rebuilt on the copying reference engine
    ({!Bx_strlens.Slens_ref}): the baseline for the P7 benchmark series
    and the oracle of the engine-equivalence tests. *)

val token : int -> string
(** A deterministic letters-only word for index [i] — the vocabulary of
    the synthetic documents. *)

val synthetic_source : int -> string
(** A [k]-record source document ["<token>, 1900-1999, <token>\n"...],
    deterministic in [k].  Shared by benchmarks and tests. *)

val synthetic_view : int -> string
(** The matching [k]-record view document, in {e reversed} record order
    so that dictionary alignment has real work to do. *)

val source_of_composers : Composers.m -> string
(** Render a set of composers as a source document (sorted). *)

val template : Bx_repo.Template.t
(** The repository entry for this variant. *)
