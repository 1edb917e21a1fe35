-- Generated by the repro FOSSY flow (Functional Oldenburg System SYnthesiser
-- reproduction).  Identifiers are preserved from the source model.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity idwt97 is
  port (
    clk    : in  std_logic;
    reset  : in  std_logic;
    start  : in  std_logic;
    done   : out std_logic;
    tile_w : in  signed(9 downto 0);
    tile_h : in  signed(9 downto 0);
    num_levels : in  signed(9 downto 0);
    busy_flag : out signed(0 downto 0));
end entity idwt97;

architecture fossy of idwt97 is
  type state_t is (
    s001_start,
    s002_tick,
    s003_then,
    s004_join,
    s005_then,
    s006_join,
    s007_then,
    s008_join,
    s009_tick,
    s010_tick,
    s011_for_level,
    s012_do_level,
    s013_for_col,
    s014_do_col,
    s015_for_load_line_v_i1_k,
    s016_do_load_line_v_i1_k,
    s017_tick,
    s018_end_load_line_v_i1_k,
    s019_for_interleave_i2_k,
    s020_do_interleave_i2_k,
    s021_tick,
    s022_end_interleave_i2_k,
    s023_for_interleave_i2_k,
    s024_do_interleave_i2_k,
    s025_tick,
    s026_end_interleave_i2_k,
    s027_then,
    s028_for_scale_line_i4_k,
    s029_do_scale_line_i4_k,
    s030_tick,
    s031_tick,
    s032_end_scale_line_i4_k,
    s033_for_scale_line_i4_k,
    s034_do_scale_line_i4_k,
    s035_tick,
    s036_tick,
    s037_end_scale_line_i4_k,
    s038_tick,
    s039_tick,
    s040_for_undo_delta_i6_k,
    s041_do_undo_delta_i6_k,
    s042_tick,
    s043_tick,
    s044_tick,
    s045_end_undo_delta_i6_k,
    s046_tick,
    s047_tick,
    s048_for_undo_gamma_i8_k,
    s049_do_undo_gamma_i8_k,
    s050_tick,
    s051_tick,
    s052_tick,
    s053_end_undo_gamma_i8_k,
    s054_tick,
    s055_tick,
    s056_for_undo_beta_i10_k,
    s057_do_undo_beta_i10_k,
    s058_tick,
    s059_tick,
    s060_tick,
    s061_end_undo_beta_i10_k,
    s062_tick,
    s063_tick,
    s064_for_undo_alpha_i12_k,
    s065_do_undo_alpha_i12_k,
    s066_tick,
    s067_tick,
    s068_tick,
    s069_end_undo_alpha_i12_k,
    s070_join,
    s071_for_store_line_v_i13_k,
    s072_do_store_line_v_i13_k,
    s073_tick,
    s074_end_store_line_v_i13_k,
    s075_end_col,
    s076_for_row,
    s077_do_row,
    s078_for_load_line_h_i14_k,
    s079_do_load_line_h_i14_k,
    s080_tick,
    s081_end_load_line_h_i14_k,
    s082_for_interleave_i15_k,
    s083_do_interleave_i15_k,
    s084_tick,
    s085_end_interleave_i15_k,
    s086_for_interleave_i15_k,
    s087_do_interleave_i15_k,
    s088_tick,
    s089_end_interleave_i15_k,
    s090_then,
    s091_for_scale_line_i17_k,
    s092_do_scale_line_i17_k,
    s093_tick,
    s094_tick,
    s095_end_scale_line_i17_k,
    s096_for_scale_line_i17_k,
    s097_do_scale_line_i17_k,
    s098_tick,
    s099_tick,
    s100_end_scale_line_i17_k,
    s101_tick,
    s102_tick,
    s103_for_undo_delta_i19_k,
    s104_do_undo_delta_i19_k,
    s105_tick,
    s106_tick,
    s107_tick,
    s108_end_undo_delta_i19_k,
    s109_tick,
    s110_tick,
    s111_for_undo_gamma_i21_k,
    s112_do_undo_gamma_i21_k,
    s113_tick,
    s114_tick,
    s115_tick,
    s116_end_undo_gamma_i21_k,
    s117_tick,
    s118_tick,
    s119_for_undo_beta_i23_k,
    s120_do_undo_beta_i23_k,
    s121_tick,
    s122_tick,
    s123_tick,
    s124_end_undo_beta_i23_k,
    s125_tick,
    s126_tick,
    s127_for_undo_alpha_i25_k,
    s128_do_undo_alpha_i25_k,
    s129_tick,
    s130_tick,
    s131_tick,
    s132_end_undo_alpha_i25_k,
    s133_join,
    s134_then,
    s135_for_clamp_line_i26_k,
    s136_do_clamp_line_i26_k,
    s137_tick,
    s138_then,
    s139_else,
    s140_then,
    s141_join,
    s142_join,
    s143_tick,
    s144_end_clamp_line_i26_k,
    s145_join,
    s146_for_store_line_h_i27_k,
    s147_do_store_line_h_i27_k,
    s148_tick,
    s149_end_store_line_h_i27_k,
    s150_end_row,
    s151_tick,
    s152_end_level,
    s153_tick,
    DONE
  );
  signal state : state_t := s001_start;
  signal level : signed(9 downto 0);
  signal row : signed(9 downto 0);
  signal col : signed(9 downto 0);
  signal cur_w : signed(9 downto 0);
  signal cur_h : signed(9 downto 0);
  signal latched_w : signed(9 downto 0);
  signal latched_h : signed(9 downto 0);
  signal latched_n : signed(9 downto 0);
  signal row_base : signed(15 downto 0);
  signal load_line_v_i1_k : signed(9 downto 0);
  signal load_line_v_i1_addr : signed(15 downto 0);
  signal interleave_i2_k : signed(9 downto 0);
  signal scale_line_i4_k : signed(9 downto 0);
  signal scale_line_i4_product : signed(25 downto 0);
  signal scale_line_i4_half : signed(9 downto 0);
  signal undo_delta_i6_k : signed(9 downto 0);
  signal undo_delta_i6_total : signed(25 downto 0);
  signal undo_delta_i6_product : signed(25 downto 0);
  signal undo_delta_i6_half : signed(9 downto 0);
  signal undo_gamma_i8_k : signed(9 downto 0);
  signal undo_gamma_i8_total : signed(25 downto 0);
  signal undo_gamma_i8_product : signed(25 downto 0);
  signal undo_gamma_i8_half : signed(9 downto 0);
  signal undo_beta_i10_k : signed(9 downto 0);
  signal undo_beta_i10_total : signed(25 downto 0);
  signal undo_beta_i10_product : signed(25 downto 0);
  signal undo_beta_i10_half : signed(9 downto 0);
  signal undo_alpha_i12_k : signed(9 downto 0);
  signal undo_alpha_i12_total : signed(25 downto 0);
  signal undo_alpha_i12_product : signed(25 downto 0);
  signal undo_alpha_i12_half : signed(9 downto 0);
  signal store_line_v_i13_k : signed(9 downto 0);
  signal store_line_v_i13_addr : signed(15 downto 0);
  signal load_line_h_i14_k : signed(9 downto 0);
  signal load_line_h_i14_addr : signed(15 downto 0);
  signal interleave_i15_k : signed(9 downto 0);
  signal scale_line_i17_k : signed(9 downto 0);
  signal scale_line_i17_product : signed(25 downto 0);
  signal scale_line_i17_half : signed(9 downto 0);
  signal undo_delta_i19_k : signed(9 downto 0);
  signal undo_delta_i19_total : signed(25 downto 0);
  signal undo_delta_i19_product : signed(25 downto 0);
  signal undo_delta_i19_half : signed(9 downto 0);
  signal undo_gamma_i21_k : signed(9 downto 0);
  signal undo_gamma_i21_total : signed(25 downto 0);
  signal undo_gamma_i21_product : signed(25 downto 0);
  signal undo_gamma_i21_half : signed(9 downto 0);
  signal undo_beta_i23_k : signed(9 downto 0);
  signal undo_beta_i23_total : signed(25 downto 0);
  signal undo_beta_i23_product : signed(25 downto 0);
  signal undo_beta_i23_half : signed(9 downto 0);
  signal undo_alpha_i25_k : signed(9 downto 0);
  signal undo_alpha_i25_total : signed(25 downto 0);
  signal undo_alpha_i25_product : signed(25 downto 0);
  signal undo_alpha_i25_half : signed(9 downto 0);
  signal clamp_line_i26_k : signed(9 downto 0);
  signal clamp_line_i26_value : signed(25 downto 0);
  signal store_line_h_i27_k : signed(9 downto 0);
  signal store_line_h_i27_addr : signed(15 downto 0);
  type line_buf_t is array (0 to 260) of signed(17 downto 0);
  signal line_buf : line_buf_t;
  type scratch_buf_t is array (0 to 255) of signed(17 downto 0);
  signal scratch_buf : scratch_buf_t;
  type tile_ram_t is array (0 to 16383) of signed(17 downto 0);
  signal tile_ram : tile_ram_t;
begin
  fsm : process (clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        state <= s001_start;
        done <= '0';
      else
        case state is
          when s001_start =>
            busy_flag <= to_signed(1, 1);
            latched_w <= tile_w;
            latched_h <= tile_h;
            latched_n <= num_levels;
            state <= s002_tick;
          when s002_tick =>
            if (latched_n > to_signed(6, 10)) then
              state <= s003_then;
            else
              state <= s004_join;
            end if;
          when s003_then =>
            latched_n <= to_signed(6, 10);
            state <= s004_join;
          when s004_join =>
            if (latched_w < to_signed(2, 10)) then
              state <= s005_then;
            else
              state <= s006_join;
            end if;
          when s005_then =>
            latched_w <= to_signed(2, 10);
            state <= s006_join;
          when s006_join =>
            if (latched_h < to_signed(2, 10)) then
              state <= s007_then;
            else
              state <= s008_join;
            end if;
          when s007_then =>
            latched_h <= to_signed(2, 10);
            state <= s008_join;
          when s008_join =>
            state <= s009_tick;
          when s009_tick =>
            cur_w <= shift_right(latched_w, to_integer(resize(latched_n - to_signed(1, 10), 10)));
            cur_h <= shift_right(latched_h, to_integer(resize(latched_n - to_signed(1, 10), 10)));
            state <= s010_tick;
          when s010_tick =>
            level <= to_signed(0, 10);
            state <= s011_for_level;
          when s011_for_level =>
            if (level < latched_n) then
              state <= s012_do_level;
            else
              state <= s152_end_level;
            end if;
          when s012_do_level =>
            col <= to_signed(0, 10);
            state <= s013_for_col;
          when s013_for_col =>
            if (col < cur_w) then
              state <= s014_do_col;
            else
              state <= s075_end_col;
            end if;
          when s014_do_col =>
            load_line_v_i1_addr <= resize(col + to_signed(0, 16), 16);
            load_line_v_i1_k <= to_signed(0, 10);
            state <= s015_for_load_line_v_i1_k;
          when s015_for_load_line_v_i1_k =>
            if (load_line_v_i1_k < cur_h) then
              state <= s016_do_load_line_v_i1_k;
            else
              state <= s018_end_load_line_v_i1_k;
            end if;
          when s016_do_load_line_v_i1_k =>
            line_buf(to_integer(resize(load_line_v_i1_k + to_signed(2, 10), 10))) <= tile_ram(to_integer(load_line_v_i1_addr));
            load_line_v_i1_addr <= resize(load_line_v_i1_addr + resize(latched_w + to_signed(0, 16), 16), 16);
            state <= s017_tick;
          when s017_tick =>
            load_line_v_i1_k <= resize(load_line_v_i1_k + to_signed(1, 10), 10);
            state <= s015_for_load_line_v_i1_k;
          when s018_end_load_line_v_i1_k =>
            interleave_i2_k <= to_signed(0, 10);
            state <= s019_for_interleave_i2_k;
          when s019_for_interleave_i2_k =>
            if (interleave_i2_k < resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10)) then
              state <= s020_do_interleave_i2_k;
            else
              state <= s022_end_interleave_i2_k;
            end if;
          when s020_do_interleave_i2_k =>
            scratch_buf(to_integer(shift_left(interleave_i2_k, to_integer(to_signed(1, 10))))) <= line_buf(to_integer(resize(interleave_i2_k + to_signed(2, 10), 10)));
            scratch_buf(to_integer(resize(shift_left(interleave_i2_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) <= line_buf(to_integer(resize(resize(interleave_i2_k + resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10), 10) + to_signed(2, 10), 10)));
            state <= s021_tick;
          when s021_tick =>
            interleave_i2_k <= resize(interleave_i2_k + to_signed(1, 10), 10);
            state <= s019_for_interleave_i2_k;
          when s022_end_interleave_i2_k =>
            interleave_i2_k <= to_signed(0, 10);
            state <= s023_for_interleave_i2_k;
          when s023_for_interleave_i2_k =>
            if (interleave_i2_k < cur_h) then
              state <= s024_do_interleave_i2_k;
            else
              state <= s026_end_interleave_i2_k;
            end if;
          when s024_do_interleave_i2_k =>
            line_buf(to_integer(resize(interleave_i2_k + to_signed(2, 10), 10))) <= scratch_buf(to_integer(interleave_i2_k));
            state <= s025_tick;
          when s025_tick =>
            interleave_i2_k <= resize(interleave_i2_k + to_signed(1, 10), 10);
            state <= s023_for_interleave_i2_k;
          when s026_end_interleave_i2_k =>
            if (cur_h > to_signed(1, 10)) then
              state <= s027_then;
            else
              state <= s070_join;
            end if;
          when s027_then =>
            scale_line_i4_half <= resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10);
            scale_line_i4_k <= to_signed(0, 10);
            state <= s028_for_scale_line_i4_k;
          when s028_for_scale_line_i4_k =>
            if (scale_line_i4_k < scale_line_i4_half) then
              state <= s029_do_scale_line_i4_k;
            else
              state <= s032_end_scale_line_i4_k;
            end if;
          when s029_do_scale_line_i4_k =>
            scale_line_i4_product <= resize(line_buf(to_integer(resize(shift_left(scale_line_i4_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) * to_signed(20155, 26), 26);
            state <= s030_tick;
          when s030_tick =>
            line_buf(to_integer(resize(shift_left(scale_line_i4_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= shift_right(resize(scale_line_i4_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
            state <= s031_tick;
          when s031_tick =>
            scale_line_i4_k <= resize(scale_line_i4_k + to_signed(1, 10), 10);
            state <= s028_for_scale_line_i4_k;
          when s032_end_scale_line_i4_k =>
            scale_line_i4_k <= to_signed(0, 10);
            state <= s033_for_scale_line_i4_k;
          when s033_for_scale_line_i4_k =>
            if (scale_line_i4_k < shift_right(cur_h, to_integer(to_signed(1, 10)))) then
              state <= s034_do_scale_line_i4_k;
            else
              state <= s037_end_scale_line_i4_k;
            end if;
          when s034_do_scale_line_i4_k =>
            scale_line_i4_product <= resize(line_buf(to_integer(resize(shift_left(scale_line_i4_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) * to_signed(13318, 26), 26);
            state <= s035_tick;
          when s035_tick =>
            line_buf(to_integer(resize(shift_left(scale_line_i4_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= shift_right(resize(scale_line_i4_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
            state <= s036_tick;
          when s036_tick =>
            scale_line_i4_k <= resize(scale_line_i4_k + to_signed(1, 10), 10);
            state <= s033_for_scale_line_i4_k;
          when s037_end_scale_line_i4_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s038_tick;
          when s038_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s039_tick;
          when s039_tick =>
            undo_delta_i6_half <= resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10);
            undo_delta_i6_k <= to_signed(0, 10);
            state <= s040_for_undo_delta_i6_k;
          when s040_for_undo_delta_i6_k =>
            if (undo_delta_i6_k < undo_delta_i6_half) then
              state <= s041_do_undo_delta_i6_k;
            else
              state <= s045_end_undo_delta_i6_k;
            end if;
          when s041_do_undo_delta_i6_k =>
            undo_delta_i6_total <= resize(line_buf(to_integer(resize(shift_left(undo_delta_i6_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_delta_i6_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
            state <= s042_tick;
          when s042_tick =>
            undo_delta_i6_product <= resize(undo_delta_i6_total * to_signed(-7266, 26), 26);
            state <= s043_tick;
          when s043_tick =>
            line_buf(to_integer(resize(shift_left(undo_delta_i6_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_delta_i6_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(undo_delta_i6_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s044_tick;
          when s044_tick =>
            undo_delta_i6_k <= resize(undo_delta_i6_k + to_signed(1, 10), 10);
            state <= s040_for_undo_delta_i6_k;
          when s045_end_undo_delta_i6_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s046_tick;
          when s046_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s047_tick;
          when s047_tick =>
            undo_gamma_i8_half <= shift_right(cur_h, to_integer(to_signed(1, 10)));
            undo_gamma_i8_k <= to_signed(0, 10);
            state <= s048_for_undo_gamma_i8_k;
          when s048_for_undo_gamma_i8_k =>
            if (undo_gamma_i8_k < undo_gamma_i8_half) then
              state <= s049_do_undo_gamma_i8_k;
            else
              state <= s053_end_undo_gamma_i8_k;
            end if;
          when s049_do_undo_gamma_i8_k =>
            undo_gamma_i8_total <= resize(line_buf(to_integer(resize(shift_left(undo_gamma_i8_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_gamma_i8_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
            state <= s050_tick;
          when s050_tick =>
            undo_gamma_i8_product <= resize(undo_gamma_i8_total * to_signed(-14464, 26), 26);
            state <= s051_tick;
          when s051_tick =>
            line_buf(to_integer(resize(shift_left(undo_gamma_i8_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_gamma_i8_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(undo_gamma_i8_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s052_tick;
          when s052_tick =>
            undo_gamma_i8_k <= resize(undo_gamma_i8_k + to_signed(1, 10), 10);
            state <= s048_for_undo_gamma_i8_k;
          when s053_end_undo_gamma_i8_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s054_tick;
          when s054_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s055_tick;
          when s055_tick =>
            undo_beta_i10_half <= resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10);
            undo_beta_i10_k <= to_signed(0, 10);
            state <= s056_for_undo_beta_i10_k;
          when s056_for_undo_beta_i10_k =>
            if (undo_beta_i10_k < undo_beta_i10_half) then
              state <= s057_do_undo_beta_i10_k;
            else
              state <= s061_end_undo_beta_i10_k;
            end if;
          when s057_do_undo_beta_i10_k =>
            undo_beta_i10_total <= resize(line_buf(to_integer(resize(shift_left(undo_beta_i10_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_beta_i10_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
            state <= s058_tick;
          when s058_tick =>
            undo_beta_i10_product <= resize(undo_beta_i10_total * to_signed(868, 26), 26);
            state <= s059_tick;
          when s059_tick =>
            line_buf(to_integer(resize(shift_left(undo_beta_i10_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_beta_i10_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(undo_beta_i10_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s060_tick;
          when s060_tick =>
            undo_beta_i10_k <= resize(undo_beta_i10_k + to_signed(1, 10), 10);
            state <= s056_for_undo_beta_i10_k;
          when s061_end_undo_beta_i10_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s062_tick;
          when s062_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s063_tick;
          when s063_tick =>
            undo_alpha_i12_half <= shift_right(cur_h, to_integer(to_signed(1, 10)));
            undo_alpha_i12_k <= to_signed(0, 10);
            state <= s064_for_undo_alpha_i12_k;
          when s064_for_undo_alpha_i12_k =>
            if (undo_alpha_i12_k < undo_alpha_i12_half) then
              state <= s065_do_undo_alpha_i12_k;
            else
              state <= s069_end_undo_alpha_i12_k;
            end if;
          when s065_do_undo_alpha_i12_k =>
            undo_alpha_i12_total <= resize(line_buf(to_integer(resize(shift_left(undo_alpha_i12_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_alpha_i12_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
            state <= s066_tick;
          when s066_tick =>
            undo_alpha_i12_product <= resize(undo_alpha_i12_total * to_signed(25987, 26), 26);
            state <= s067_tick;
          when s067_tick =>
            line_buf(to_integer(resize(shift_left(undo_alpha_i12_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_alpha_i12_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(undo_alpha_i12_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s068_tick;
          when s068_tick =>
            undo_alpha_i12_k <= resize(undo_alpha_i12_k + to_signed(1, 10), 10);
            state <= s064_for_undo_alpha_i12_k;
          when s069_end_undo_alpha_i12_k =>
            state <= s070_join;
          when s070_join =>
            store_line_v_i13_addr <= resize(col + to_signed(0, 16), 16);
            store_line_v_i13_k <= to_signed(0, 10);
            state <= s071_for_store_line_v_i13_k;
          when s071_for_store_line_v_i13_k =>
            if (store_line_v_i13_k < cur_h) then
              state <= s072_do_store_line_v_i13_k;
            else
              state <= s074_end_store_line_v_i13_k;
            end if;
          when s072_do_store_line_v_i13_k =>
            tile_ram(to_integer(store_line_v_i13_addr)) <= line_buf(to_integer(resize(store_line_v_i13_k + to_signed(2, 10), 10)));
            store_line_v_i13_addr <= resize(store_line_v_i13_addr + resize(latched_w + to_signed(0, 16), 16), 16);
            state <= s073_tick;
          when s073_tick =>
            store_line_v_i13_k <= resize(store_line_v_i13_k + to_signed(1, 10), 10);
            state <= s071_for_store_line_v_i13_k;
          when s074_end_store_line_v_i13_k =>
            col <= resize(col + to_signed(1, 10), 10);
            state <= s013_for_col;
          when s075_end_col =>
            row_base <= to_signed(0, 16);
            row <= to_signed(0, 10);
            state <= s076_for_row;
          when s076_for_row =>
            if (row < cur_h) then
              state <= s077_do_row;
            else
              state <= s150_end_row;
            end if;
          when s077_do_row =>
            load_line_h_i14_addr <= row_base;
            load_line_h_i14_k <= to_signed(0, 10);
            state <= s078_for_load_line_h_i14_k;
          when s078_for_load_line_h_i14_k =>
            if (load_line_h_i14_k < cur_w) then
              state <= s079_do_load_line_h_i14_k;
            else
              state <= s081_end_load_line_h_i14_k;
            end if;
          when s079_do_load_line_h_i14_k =>
            line_buf(to_integer(resize(load_line_h_i14_k + to_signed(2, 10), 10))) <= tile_ram(to_integer(load_line_h_i14_addr));
            load_line_h_i14_addr <= resize(load_line_h_i14_addr + to_signed(1, 16), 16);
            state <= s080_tick;
          when s080_tick =>
            load_line_h_i14_k <= resize(load_line_h_i14_k + to_signed(1, 10), 10);
            state <= s078_for_load_line_h_i14_k;
          when s081_end_load_line_h_i14_k =>
            interleave_i15_k <= to_signed(0, 10);
            state <= s082_for_interleave_i15_k;
          when s082_for_interleave_i15_k =>
            if (interleave_i15_k < resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10)) then
              state <= s083_do_interleave_i15_k;
            else
              state <= s085_end_interleave_i15_k;
            end if;
          when s083_do_interleave_i15_k =>
            scratch_buf(to_integer(shift_left(interleave_i15_k, to_integer(to_signed(1, 10))))) <= line_buf(to_integer(resize(interleave_i15_k + to_signed(2, 10), 10)));
            scratch_buf(to_integer(resize(shift_left(interleave_i15_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) <= line_buf(to_integer(resize(resize(interleave_i15_k + resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10), 10) + to_signed(2, 10), 10)));
            state <= s084_tick;
          when s084_tick =>
            interleave_i15_k <= resize(interleave_i15_k + to_signed(1, 10), 10);
            state <= s082_for_interleave_i15_k;
          when s085_end_interleave_i15_k =>
            interleave_i15_k <= to_signed(0, 10);
            state <= s086_for_interleave_i15_k;
          when s086_for_interleave_i15_k =>
            if (interleave_i15_k < cur_w) then
              state <= s087_do_interleave_i15_k;
            else
              state <= s089_end_interleave_i15_k;
            end if;
          when s087_do_interleave_i15_k =>
            line_buf(to_integer(resize(interleave_i15_k + to_signed(2, 10), 10))) <= scratch_buf(to_integer(interleave_i15_k));
            state <= s088_tick;
          when s088_tick =>
            interleave_i15_k <= resize(interleave_i15_k + to_signed(1, 10), 10);
            state <= s086_for_interleave_i15_k;
          when s089_end_interleave_i15_k =>
            if (cur_w > to_signed(1, 10)) then
              state <= s090_then;
            else
              state <= s133_join;
            end if;
          when s090_then =>
            scale_line_i17_half <= resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10);
            scale_line_i17_k <= to_signed(0, 10);
            state <= s091_for_scale_line_i17_k;
          when s091_for_scale_line_i17_k =>
            if (scale_line_i17_k < scale_line_i17_half) then
              state <= s092_do_scale_line_i17_k;
            else
              state <= s095_end_scale_line_i17_k;
            end if;
          when s092_do_scale_line_i17_k =>
            scale_line_i17_product <= resize(line_buf(to_integer(resize(shift_left(scale_line_i17_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) * to_signed(20155, 26), 26);
            state <= s093_tick;
          when s093_tick =>
            line_buf(to_integer(resize(shift_left(scale_line_i17_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= shift_right(resize(scale_line_i17_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
            state <= s094_tick;
          when s094_tick =>
            scale_line_i17_k <= resize(scale_line_i17_k + to_signed(1, 10), 10);
            state <= s091_for_scale_line_i17_k;
          when s095_end_scale_line_i17_k =>
            scale_line_i17_k <= to_signed(0, 10);
            state <= s096_for_scale_line_i17_k;
          when s096_for_scale_line_i17_k =>
            if (scale_line_i17_k < shift_right(cur_w, to_integer(to_signed(1, 10)))) then
              state <= s097_do_scale_line_i17_k;
            else
              state <= s100_end_scale_line_i17_k;
            end if;
          when s097_do_scale_line_i17_k =>
            scale_line_i17_product <= resize(line_buf(to_integer(resize(shift_left(scale_line_i17_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) * to_signed(13318, 26), 26);
            state <= s098_tick;
          when s098_tick =>
            line_buf(to_integer(resize(shift_left(scale_line_i17_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= shift_right(resize(scale_line_i17_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
            state <= s099_tick;
          when s099_tick =>
            scale_line_i17_k <= resize(scale_line_i17_k + to_signed(1, 10), 10);
            state <= s096_for_scale_line_i17_k;
          when s100_end_scale_line_i17_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s101_tick;
          when s101_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s102_tick;
          when s102_tick =>
            undo_delta_i19_half <= resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10);
            undo_delta_i19_k <= to_signed(0, 10);
            state <= s103_for_undo_delta_i19_k;
          when s103_for_undo_delta_i19_k =>
            if (undo_delta_i19_k < undo_delta_i19_half) then
              state <= s104_do_undo_delta_i19_k;
            else
              state <= s108_end_undo_delta_i19_k;
            end if;
          when s104_do_undo_delta_i19_k =>
            undo_delta_i19_total <= resize(line_buf(to_integer(resize(shift_left(undo_delta_i19_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_delta_i19_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
            state <= s105_tick;
          when s105_tick =>
            undo_delta_i19_product <= resize(undo_delta_i19_total * to_signed(-7266, 26), 26);
            state <= s106_tick;
          when s106_tick =>
            line_buf(to_integer(resize(shift_left(undo_delta_i19_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_delta_i19_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(undo_delta_i19_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s107_tick;
          when s107_tick =>
            undo_delta_i19_k <= resize(undo_delta_i19_k + to_signed(1, 10), 10);
            state <= s103_for_undo_delta_i19_k;
          when s108_end_undo_delta_i19_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s109_tick;
          when s109_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s110_tick;
          when s110_tick =>
            undo_gamma_i21_half <= shift_right(cur_w, to_integer(to_signed(1, 10)));
            undo_gamma_i21_k <= to_signed(0, 10);
            state <= s111_for_undo_gamma_i21_k;
          when s111_for_undo_gamma_i21_k =>
            if (undo_gamma_i21_k < undo_gamma_i21_half) then
              state <= s112_do_undo_gamma_i21_k;
            else
              state <= s116_end_undo_gamma_i21_k;
            end if;
          when s112_do_undo_gamma_i21_k =>
            undo_gamma_i21_total <= resize(line_buf(to_integer(resize(shift_left(undo_gamma_i21_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_gamma_i21_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
            state <= s113_tick;
          when s113_tick =>
            undo_gamma_i21_product <= resize(undo_gamma_i21_total * to_signed(-14464, 26), 26);
            state <= s114_tick;
          when s114_tick =>
            line_buf(to_integer(resize(shift_left(undo_gamma_i21_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_gamma_i21_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(undo_gamma_i21_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s115_tick;
          when s115_tick =>
            undo_gamma_i21_k <= resize(undo_gamma_i21_k + to_signed(1, 10), 10);
            state <= s111_for_undo_gamma_i21_k;
          when s116_end_undo_gamma_i21_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s117_tick;
          when s117_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s118_tick;
          when s118_tick =>
            undo_beta_i23_half <= resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10);
            undo_beta_i23_k <= to_signed(0, 10);
            state <= s119_for_undo_beta_i23_k;
          when s119_for_undo_beta_i23_k =>
            if (undo_beta_i23_k < undo_beta_i23_half) then
              state <= s120_do_undo_beta_i23_k;
            else
              state <= s124_end_undo_beta_i23_k;
            end if;
          when s120_do_undo_beta_i23_k =>
            undo_beta_i23_total <= resize(line_buf(to_integer(resize(shift_left(undo_beta_i23_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_beta_i23_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
            state <= s121_tick;
          when s121_tick =>
            undo_beta_i23_product <= resize(undo_beta_i23_total * to_signed(868, 26), 26);
            state <= s122_tick;
          when s122_tick =>
            line_buf(to_integer(resize(shift_left(undo_beta_i23_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_beta_i23_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(undo_beta_i23_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s123_tick;
          when s123_tick =>
            undo_beta_i23_k <= resize(undo_beta_i23_k + to_signed(1, 10), 10);
            state <= s119_for_undo_beta_i23_k;
          when s124_end_undo_beta_i23_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s125_tick;
          when s125_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s126_tick;
          when s126_tick =>
            undo_alpha_i25_half <= shift_right(cur_w, to_integer(to_signed(1, 10)));
            undo_alpha_i25_k <= to_signed(0, 10);
            state <= s127_for_undo_alpha_i25_k;
          when s127_for_undo_alpha_i25_k =>
            if (undo_alpha_i25_k < undo_alpha_i25_half) then
              state <= s128_do_undo_alpha_i25_k;
            else
              state <= s132_end_undo_alpha_i25_k;
            end if;
          when s128_do_undo_alpha_i25_k =>
            undo_alpha_i25_total <= resize(line_buf(to_integer(resize(shift_left(undo_alpha_i25_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(undo_alpha_i25_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
            state <= s129_tick;
          when s129_tick =>
            undo_alpha_i25_product <= resize(undo_alpha_i25_total * to_signed(25987, 26), 26);
            state <= s130_tick;
          when s130_tick =>
            line_buf(to_integer(resize(shift_left(undo_alpha_i25_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(undo_alpha_i25_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(undo_alpha_i25_product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
            state <= s131_tick;
          when s131_tick =>
            undo_alpha_i25_k <= resize(undo_alpha_i25_k + to_signed(1, 10), 10);
            state <= s127_for_undo_alpha_i25_k;
          when s132_end_undo_alpha_i25_k =>
            state <= s133_join;
          when s133_join =>
            if (level = resize(latched_n - to_signed(1, 10), 10)) then
              state <= s134_then;
            else
              state <= s145_join;
            end if;
          when s134_then =>
            clamp_line_i26_k <= to_signed(0, 10);
            state <= s135_for_clamp_line_i26_k;
          when s135_for_clamp_line_i26_k =>
            if (clamp_line_i26_k < cur_w) then
              state <= s136_do_clamp_line_i26_k;
            else
              state <= s144_end_clamp_line_i26_k;
            end if;
          when s136_do_clamp_line_i26_k =>
            clamp_line_i26_value <= line_buf(to_integer(resize(clamp_line_i26_k + to_signed(2, 10), 10)));
            state <= s137_tick;
          when s137_tick =>
            if (clamp_line_i26_value > to_signed(16777215, 26)) then
              state <= s138_then;
            else
              state <= s139_else;
            end if;
          when s138_then =>
            line_buf(to_integer(resize(clamp_line_i26_k + to_signed(2, 10), 10))) <= to_signed(16777215, 26);
            state <= s142_join;
          when s139_else =>
            if (clamp_line_i26_value < to_signed(-16777216, 26)) then
              state <= s140_then;
            else
              state <= s141_join;
            end if;
          when s140_then =>
            line_buf(to_integer(resize(clamp_line_i26_k + to_signed(2, 10), 10))) <= to_signed(-16777216, 26);
            state <= s141_join;
          when s141_join =>
            state <= s142_join;
          when s142_join =>
            state <= s143_tick;
          when s143_tick =>
            clamp_line_i26_k <= resize(clamp_line_i26_k + to_signed(1, 10), 10);
            state <= s135_for_clamp_line_i26_k;
          when s144_end_clamp_line_i26_k =>
            state <= s145_join;
          when s145_join =>
            store_line_h_i27_addr <= row_base;
            store_line_h_i27_k <= to_signed(0, 10);
            state <= s146_for_store_line_h_i27_k;
          when s146_for_store_line_h_i27_k =>
            if (store_line_h_i27_k < cur_w) then
              state <= s147_do_store_line_h_i27_k;
            else
              state <= s149_end_store_line_h_i27_k;
            end if;
          when s147_do_store_line_h_i27_k =>
            tile_ram(to_integer(store_line_h_i27_addr)) <= line_buf(to_integer(resize(store_line_h_i27_k + to_signed(2, 10), 10)));
            store_line_h_i27_addr <= resize(store_line_h_i27_addr + to_signed(1, 16), 16);
            state <= s148_tick;
          when s148_tick =>
            store_line_h_i27_k <= resize(store_line_h_i27_k + to_signed(1, 10), 10);
            state <= s146_for_store_line_h_i27_k;
          when s149_end_store_line_h_i27_k =>
            row_base <= resize(row_base + resize(latched_w + to_signed(0, 16), 16), 16);
            row <= resize(row + to_signed(1, 10), 10);
            state <= s076_for_row;
          when s150_end_row =>
            cur_w <= shift_left(cur_w, to_integer(to_signed(1, 10)));
            cur_h <= shift_left(cur_h, to_integer(to_signed(1, 10)));
            state <= s151_tick;
          when s151_tick =>
            level <= resize(level + to_signed(1, 10), 10);
            state <= s011_for_level;
          when s152_end_level =>
            busy_flag <= to_signed(0, 1);
            state <= s153_tick;
          when s153_tick =>
            state <= DONE;
          when DONE =>
            done <= '1';
            state <= DONE;
        end case;
      end if;
    end if;
  end process fsm;
end architecture fossy;
