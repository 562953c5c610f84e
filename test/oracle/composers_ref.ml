open Bx_regex
module CS = Bx_catalogue.Composers_string

let line =
  Slens_ref.concat_list
    [
      Slens_ref.copy CS.word;
      Slens_ref.copy (Regex.str ", ");
      Slens_ref.del (Regex.seq CS.dates (Regex.str ", ")) ~default:"????-????, ";
      Slens_ref.copy CS.word;
      Slens_ref.copy (Regex.chr '\n');
    ]

let lens = Slens_ref.star_key ~key:Fun.id line
